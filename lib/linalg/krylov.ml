(** Krylov solvers: CG, preconditioned CG, restarted GMRES.

    These are the solve-phase workhorses of hypre (PCG + AMG), Cretin's
    batched iterative population solver (GMRES + Jacobi) and the
    matrix-free topology-optimization solver (CG on an operator). All
    methods take the operator as a function so matrix-free use is direct;
    [cg]'s operator writes into a caller-supplied vector. *)

type result = {
  x : float array;
  iters : int;
  residual : float;  (** final relative residual ||b - Ax|| / ||b|| *)
  converged : bool;
}

let default_tol = 1e-10

(* Work accounting per method; handles are created once at module init so
   recording a solve is two counter bumps and a gauge store. *)
let record =
  let handles meth =
    let labels = [ ("method", meth) ] in
    ( Icoe_obs.Metrics.counter ~help:"Total Krylov iterations" ~labels
        "krylov_iterations_total",
      Icoe_obs.Metrics.counter ~help:"Completed Krylov solves" ~labels
        "krylov_solves_total",
      Icoe_obs.Metrics.gauge ~help:"Relative residual of the last solve"
        ~labels "krylov_last_residual" )
  in
  let cg_h = handles "cg" and pcg_h = handles "pcg" in
  let gmres_h = handles "gmres" in
  fun meth (r : result) ->
    let iters, solves, resid =
      match meth with
      | `Cg -> cg_h
      | `Pcg -> pcg_h
      | `Gmres -> gmres_h
    in
    Icoe_obs.Metrics.inc ~by:(float_of_int r.iters) iters;
    Icoe_obs.Metrics.inc solves;
    Icoe_obs.Metrics.set resid r.residual;
    r

(* unchecked access for [cg]'s loops, where every vector has length n *)
let get (v : float array) i = Array.unsafe_get v i
let set (v : float array) i (a : float) = Array.unsafe_set v i a

(** Conjugate gradients on an SPD operator; [op u y] writes A u into
    [y]. x, r, p and A p are the solve's only vectors: allocated once,
    updated in place, so an iteration allocates nothing. Its three
    passes — p·Ap; x and r updated with r·r summed alongside; p — run in
    ascending element order, rounding exactly as {!Vec.dot},
    {!Vec.axpy} and {!Vec.xpby} would. *)
let cg ?(tol = default_tol) ?(max_iter = 1000) ~op b x0 =
  let n = Array.length b in
  if Array.length x0 <> n then
    invalid_arg
      (Printf.sprintf "Krylov.cg: b has length %d, x0 has length %d" n
         (Array.length x0));
  let x = Array.copy x0 in
  let ap = Array.make n 0.0 in
  op x ap;
  let r = Vec.sub b ap in
  let p = Array.copy r in
  let bnorm = max (Vec.nrm2 b) 1e-300 in
  let rr = ref (Vec.dot r r) in
  let iters = ref 0 in
  (try
     while !iters < max_iter && sqrt !rr /. bnorm > tol do
       op p ap;
       let pap = ref 0.0 in
       for i = 0 to n - 1 do
         pap := !pap +. (get p i *. get ap i)
       done;
       let pap = !pap in
       (* zero or negative curvature: the operator is not SPD along p and
          alpha = rr/pap would poison x with inf/nan — bail out like pcg *)
       if pap <= 0.0 || not (Float.is_finite pap) then raise Exit;
       let alpha = !rr /. pap in
       let rr' = ref 0.0 in
       for i = 0 to n - 1 do
         set x i (get x i +. (alpha *. get p i));
         let ri = get r i +. (-.alpha *. get ap i) in
         set r i ri;
         rr' := !rr' +. (ri *. ri)
       done;
       let rr' = !rr' in
       if not (Float.is_finite rr') then raise Exit;
       let beta = rr' /. !rr in
       rr := rr';
       for i = 0 to n - 1 do
         set p i (get r i +. (beta *. get p i))
       done;
       incr iters
     done
   with Exit -> ());
  let res = sqrt !rr /. bnorm in
  record `Cg { x; iters = !iters; residual = res; converged = res <= tol }

(** Preconditioned CG; [precond r] returns M^{-1} r. *)
let pcg ?(tol = default_tol) ?(max_iter = 1000) ~op ~precond b x0 =
  let x = Array.copy x0 in
  let r = Vec.sub b (op x) in
  let z = precond r in
  let p = Array.copy z in
  let bnorm = max (Vec.nrm2 b) 1e-300 in
  let rz = ref (Vec.dot r z) in
  let iters = ref 0 in
  let res = ref (Vec.nrm2 r /. bnorm) in
  (try
     while !iters < max_iter && !res > tol do
       let ap = op p in
       let pap = Vec.dot p ap in
       if pap <= 0.0 || not (Float.is_finite pap) then raise Exit;
       let alpha = !rz /. pap in
       Vec.axpy alpha p x;
       Vec.axpy (-.alpha) ap r;
       res := Vec.nrm2 r /. bnorm;
       let z = precond r in
       let rz' = Vec.dot r z in
       let beta = rz' /. !rz in
       rz := rz';
       Vec.xpby z beta p;
       incr iters
     done
   with Exit -> ());
  record `Pcg { x; iters = !iters; residual = !res; converged = !res <= tol }

(** Restarted GMRES(m) with optional right preconditioning. *)
let gmres ?(tol = default_tol) ?(max_iter = 1000) ?(restart = 30)
    ?(precond = Array.copy) ~op b x0 =
  let n = Array.length b in
  let x = ref (Array.copy x0) in
  let bnorm = max (Vec.nrm2 b) 1e-300 in
  let total_iters = ref 0 in
  let final_res = ref infinity in
  let converged = ref false in
  (try
     while (not !converged) && !total_iters < max_iter do
       let r = Vec.sub b (op !x) in
       let beta = Vec.nrm2 r in
       final_res := beta /. bnorm;
       if !final_res <= tol then begin
         converged := true;
         raise Exit
       end;
       let m = min restart (max_iter - !total_iters) in
       (* Arnoldi basis, Hessenberg, Givens rotations *)
       let v = Array.make (m + 1) [||] in
       v.(0) <- Array.map (fun vi -> vi /. beta) r;
       let h = Array.make_matrix (m + 1) m 0.0 in
       let cs = Array.make m 0.0 and sn = Array.make m 0.0 in
       let g = Array.make (m + 1) 0.0 in
       g.(0) <- beta;
       let k_done = ref 0 in
       (try
          for k = 0 to m - 1 do
            let zk = precond v.(k) in
            let w = op zk in
            for i = 0 to k do
              h.(i).(k) <- Vec.dot w v.(i);
              Vec.axpy (-.h.(i).(k)) v.(i) w
            done;
            h.(k + 1).(k) <- Vec.nrm2 w;
            if h.(k + 1).(k) > 1e-300 then
              v.(k + 1) <- Array.map (fun wi -> wi /. h.(k + 1).(k)) w
            else v.(k + 1) <- Array.make n 0.0;
            (* apply existing rotations *)
            for i = 0 to k - 1 do
              let t = (cs.(i) *. h.(i).(k)) +. (sn.(i) *. h.(i + 1).(k)) in
              h.(i + 1).(k) <-
                (-.sn.(i) *. h.(i).(k)) +. (cs.(i) *. h.(i + 1).(k));
              h.(i).(k) <- t
            done;
            (* new rotation *)
            let denom = sqrt ((h.(k).(k) ** 2.0) +. (h.(k + 1).(k) ** 2.0)) in
            if denom < 1e-300 then begin
              cs.(k) <- 1.0;
              sn.(k) <- 0.0
            end
            else begin
              cs.(k) <- h.(k).(k) /. denom;
              sn.(k) <- h.(k + 1).(k) /. denom
            end;
            h.(k).(k) <- (cs.(k) *. h.(k).(k)) +. (sn.(k) *. h.(k + 1).(k));
            h.(k + 1).(k) <- 0.0;
            g.(k + 1) <- -.sn.(k) *. g.(k);
            g.(k) <- cs.(k) *. g.(k);
            incr total_iters;
            k_done := k + 1;
            final_res := Float.abs g.(k + 1) /. bnorm;
            if !final_res <= tol then raise Exit
          done
        with Exit -> ());
       let k = !k_done in
       if k > 0 then begin
         (* back substitution for y *)
         let y = Array.make k 0.0 in
         for i = k - 1 downto 0 do
           let s = ref g.(i) in
           for j = i + 1 to k - 1 do
             s := !s -. (h.(i).(j) *. y.(j))
           done;
           y.(i) <- !s /. h.(i).(i)
         done;
         (* x <- x + M^{-1} (V y) *)
         let upd = Array.make n 0.0 in
         for i = 0 to k - 1 do
           Vec.axpy y.(i) v.(i) upd
         done;
         let upd = precond upd in
         Vec.axpy 1.0 upd !x
       end;
       if !final_res <= tol then converged := true;
       if k = 0 then raise Exit
     done
   with Exit -> ());
  record `Gmres
    { x = !x; iters = !total_iters; residual = !final_res; converged = !converged }

(** Krylov solver: conjugate gradients, optionally preconditioned.

    The solve-phase workhorse of hypre (PCG + AMG), of the MFEM
    nonlinear-diffusion Newton solves (PCG + AMG) and of the matrix-free
    topology-optimization solver (plain CG on an operator). The operator
    [op u y] and the preconditioner [precond r z] write into
    caller-supplied vectors, so matrix-free use is direct. *)

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
  fun meth (r : result) ->
    let iters, solves, resid =
      match meth with `Cg -> cg_h | `Pcg -> pcg_h
    in
    Icoe_obs.Metrics.inc ~by:(float_of_int r.iters) iters;
    Icoe_obs.Metrics.inc solves;
    Icoe_obs.Metrics.set resid r.residual;
    r

(* unchecked access for [cg]'s loops, where every vector has length n *)
let get (v : float array) i = Array.unsafe_get v i
let set (v : float array) i (a : float) = Array.unsafe_set v i a

(** Conjugate gradients on an SPD operator; [op u y] writes A u into
    [y], [precond r z] writes M^-1 r into [z]. x, r, p and A p (and z
    when preconditioned; without a preconditioner z is r) are the
    solve's only vectors: allocated once, updated in place, so an
    iteration allocates nothing of its own. Its passes — p·Ap; x and r
    updated with r·r summed alongside; r·z; p — run in ascending element
    order, rounding exactly as {!Vec.dot}, {!Vec.axpy} and {!Vec.xpby}
    would. *)
let cg ?(tol = default_tol) ?(max_iter = 1000) ?precond ~op b x0 =
  let n = Array.length b in
  if Array.length x0 <> n then
    invalid_arg
      (Printf.sprintf "Krylov.cg: b has length %d, x0 has length %d" n
         (Array.length x0));
  let x = Array.copy x0 in
  let ap = Array.make n 0.0 in
  op x ap;
  let r = Vec.sub b ap in
  let z =
    match precond with
    | None -> r
    | Some m ->
        let z = Array.make n 0.0 in
        m r z;
        z
  in
  let p = Array.copy z in
  let bnorm = max (Vec.nrm2 b) 1e-300 in
  let rr = ref (Vec.dot r r) in
  let rz = ref (if z == r then !rr else Vec.dot r z) in
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
          alpha = rz/pap would poison x with inf/nan — bail out *)
       if pap <= 0.0 || not (Float.is_finite pap) then raise Exit;
       let alpha = !rz /. pap in
       let rr' = ref 0.0 in
       for i = 0 to n - 1 do
         set x i (get x i +. (alpha *. get p i));
         let ri = get r i +. (-.alpha *. get ap i) in
         set r i ri;
         rr' := !rr' +. (ri *. ri)
       done;
       let rr' = !rr' in
       let rz' =
         match precond with
         | None ->
             if not (Float.is_finite rr') then raise Exit;
             rr'
         | Some m ->
             m r z;
             let s = ref 0.0 in
             for i = 0 to n - 1 do
               s := !s +. (get r i *. get z i)
             done;
             !s
       in
       let beta = rz' /. !rz in
       rr := rr';
       rz := rz';
       for i = 0 to n - 1 do
         set p i (get z i +. (beta *. get p i))
       done;
       incr iters
     done
   with Exit -> ());
  let res = sqrt !rr /. bnorm in
  record
    (if Option.is_none precond then `Cg else `Pcg)
    { x; iters = !iters; residual = res; converged = res <= tol }

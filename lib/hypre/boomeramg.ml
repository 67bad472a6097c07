(** BoomerAMG: unstructured algebraic multigrid.

    Setup (CPU, per the paper): strength → PMIS coarsening → direct
    interpolation → Galerkin coarse operator A_c = P^T A P, recursively.
    Solve (GPU-portable, per the paper): V-cycles whose fine-level work is
    smoother sweeps and spmv restrict/prolong — all matvec-shaped.
    {!v_cycle_work} reports the flop/byte volume of one V-cycle so the
    hardware model can price the solve phase on any device. *)

type level = {
  a : Linalg.Csr.t;
  l1 : float array;  (** [a]'s row l1 norms, the smoother's scaling *)
  p : Linalg.Csr.t option;  (** interpolation to this level from coarser *)
  r : Linalg.Csr.t option;  (** restriction = P^T *)
  res : float array;  (** residual and correction workspace, one per row *)
  bc : float array;  (** the next level's right-hand side ([||] on the coarsest) *)
  xc : float array;  (** the next level's iterate ([||] on the coarsest) *)
}

type t = {
  levels : level array;  (** levels.(0) is the fine grid *)
  coarse_lu : Linalg.Dense.lu;
}

(* the setup and cycle parameters: strength threshold, hierarchy depth
   and coarsest size, one l1-Jacobi sweep before and after the coarse
   correction, and the PMIS random stream *)
let theta = 0.25
let max_levels = 20
let coarse_size = 40
let nu_pre = 1
let nu_post = 1
let seed = 7

let m_vcycles =
  Icoe_obs.Metrics.counter ~help:"BoomerAMG V-cycles applied" "amg_vcycles_total"

let m_levels =
  Icoe_obs.Metrics.gauge ~help:"Levels in the last AMG hierarchy built"
    "amg_levels"

let m_opcx =
  Icoe_obs.Metrics.gauge
    ~help:"Operator complexity of the last AMG hierarchy built"
    "amg_operator_complexity"

let num_levels t = Array.length t.levels

let operator_complexity t =
  let fine = float_of_int (Linalg.Csr.nnz t.levels.(0).a) in
  let total =
    Array.fold_left (fun s l -> s +. float_of_int (Linalg.Csr.nnz l.a)) 0.0 t.levels
  in
  total /. fine

let setup (a0 : Linalg.Csr.t) =
  let rng = Icoe_util.Rng.create seed in
  (* a level and its workspaces; the next-coarser level has [nc] rows *)
  let level a p r nc =
    { a; l1 = Smoother.l1_norms a; p; r; res = Array.make a.Linalg.Csr.m 0.0;
      bc = Array.make nc 0.0; xc = Array.make nc 0.0 }
  in
  let rec build a acc depth =
    if a.Linalg.Csr.m <= coarse_size || depth >= max_levels then
      (a, List.rev acc)
    else
      let s = Coarsen.strength ~theta a in
      let cf = Coarsen.pmis ~rng s in
      let nc = Array.fold_left (fun c x -> if x = Coarsen.Coarse then c + 1 else c) 0 cf in
      if nc = 0 || nc >= a.Linalg.Csr.m then (a, List.rev acc)
      else
        let p, _ = Coarsen.direct_interpolation a s cf in
        let r = Linalg.Csr.transpose p in
        let ac = Linalg.Csr.matmul r (Linalg.Csr.matmul a p) in
        build ac (level a (Some p) (Some r) ac.Linalg.Csr.m :: acc) (depth + 1)
  in
  let coarse_a, levels = build a0 [] 0 in
  let levels = levels @ [ level coarse_a None None 0 ] in
  let coarse_dense = Linalg.Csr.to_dense coarse_a in
  (* regularize in case the coarsest operator is singular (pure Neumann) *)
  let lu =
    try Linalg.Dense.lu_factor coarse_dense
    with Linalg.Dense.Singular _ ->
      let d = Linalg.Dense.copy coarse_dense in
      for i = 0 to d.Linalg.Dense.m - 1 do
        Linalg.Dense.update d i i (fun v -> v +. 1e-8)
      done;
      Linalg.Dense.lu_factor d
  in
  let t = { levels = Array.of_list levels; coarse_lu = lu } in
  Icoe_obs.Metrics.set m_levels (float_of_int (num_levels t));
  Icoe_obs.Metrics.set m_opcx (operator_complexity t);
  t

(** One V-cycle for A x = b starting from x (modified in place at level
    0). Every intermediate vector is a level workspace: the cycle
    allocates nothing of its own. *)
let v_cycle t b x =
  Icoe_obs.Metrics.inc m_vcycles;
  let nl = Array.length t.levels in
  let rec descend lvl b x =
    let l = t.levels.(lvl) in
    if lvl = nl - 1 then Linalg.Dense.lu_solve_into t.coarse_lu b x
    else begin
      let a = l.a and l1 = l.l1 and res = l.res in
      for _ = 1 to nu_pre do
        Smoother.sweep a ~l1 b x res
      done;
      Linalg.Csr.spmv_into a x res;
      for i = 0 to a.Linalg.Csr.m - 1 do
        res.(i) <- b.(i) -. res.(i)
      done;
      (* restriction lives on the *finer* level's record *)
      Linalg.Csr.spmv_into (Option.get l.r) res l.bc;
      Array.fill l.xc 0 (Array.length l.xc) 0.0;
      descend (lvl + 1) l.bc l.xc;
      Linalg.Csr.spmv_into (Option.get l.p) l.xc res;
      for i = 0 to a.Linalg.Csr.m - 1 do
        x.(i) <- x.(i) +. (1.0 *. res.(i))
      done;
      for _ = 1 to nu_post do
        Smoother.sweep a ~l1 b x res
      done
    end
  in
  descend 0 b x

(** Use as a preconditioner: one V-cycle applied to r from a zero guess,
    written into z. *)
let precond t r z =
  Array.fill z 0 (Array.length z) 0.0;
  v_cycle t r z

(** PCG with this AMG as preconditioner — the hypre Krylov + AMG stack. *)
let pcg_solve ?(tol = 1e-8) ?(max_iter = 200) t b x0 =
  Linalg.Krylov.cg ~tol ~max_iter ~precond:(precond t)
    ~op:(Linalg.Csr.spmv_into t.levels.(0).a) b x0

(** Flop/byte volume of one V-cycle: every smoother sweep costs ~2 spmv
    traversals, restrict/prolong one each. Used to price the solve phase
    on simulated devices. *)
let v_cycle_work (t : t) =
  let spmv_cost (m : Linalg.Csr.t) =
    let nz = float_of_int (Linalg.Csr.nnz m) in
    (* 2 flops and 12 bytes (value + column index + vector read) per nnz,
       plus the output vector write *)
    (2.0 *. nz, (12.0 *. nz) +. (8.0 *. float_of_int m.Linalg.Csr.m))
  in
  let flops = ref 0.0 and bytes = ref 0.0 and launches = ref 0 in
  Array.iteri
    (fun lvl l ->
      let f, b = spmv_cost l.a in
      let sweeps = float_of_int (nu_pre + nu_post) in
      if lvl < Array.length t.levels - 1 then begin
        (* each sweep: one residual spmv + diagonal update *)
        flops := !flops +. (sweeps *. (f +. (2.0 *. float_of_int l.a.Linalg.Csr.m)));
        bytes := !bytes +. (sweeps *. (b +. (16.0 *. float_of_int l.a.Linalg.Csr.m)));
        launches := !launches + ((nu_pre + nu_post) * 2);
        (* residual + restrict + prolong *)
        flops := !flops +. f;
        bytes := !bytes +. b;
        launches := !launches + 3;
        (match l.r with
        | Some r ->
            let f, b = spmv_cost r in
            flops := !flops +. (2.0 *. f);
            bytes := !bytes +. (2.0 *. b)
        | None -> ())
      end)
    t.levels;
  Hwsim.Kernel.make ~name:"amg-vcycle" ~flops:!flops ~bytes:!bytes
    ~launches:!launches ()

(* The preconditioned CG that [Linalg.Krylov.cg ?precond] absorbed:
   fresh-vector [op] and [precond] functions, and separate axpy, axpy,
   nrm2, dot and xpby passes over [Linalg.Vec]. Kept, without the
   metrics registry, as the bit-exact oracle of the in-place solver. *)

open Linalg

let pcg ?(tol = Krylov.default_tol) ?(max_iter = 1000) ~op ~precond b x0 =
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
  { Krylov.x; iters = !iters; residual = !res; converged = !res <= tol }

(* The conjugate-gradient solver [Linalg.Krylov.cg] replaced: a fresh
   operator result every iteration and separate axpy, axpy and dot
   passes over [Linalg.Vec]. Kept, without the metrics registry, as the
   bit-exact oracle of the in-place, fused solver. *)

open Linalg

let cg ?(tol = Krylov.default_tol) ?(max_iter = 1000) ~op b x0 =
  let x = Array.copy x0 in
  let r = Vec.sub b (op x) in
  let p = Array.copy r in
  let bnorm = max (Vec.nrm2 b) 1e-300 in
  let rr = ref (Vec.dot r r) in
  let iters = ref 0 in
  (try
     while !iters < max_iter && sqrt !rr /. bnorm > tol do
       let ap = op p in
       let pap = Vec.dot p ap in
       if pap <= 0.0 || not (Float.is_finite pap) then raise Exit;
       let alpha = !rr /. pap in
       Vec.axpy alpha p x;
       Vec.axpy (-.alpha) ap r;
       let rr' = Vec.dot r r in
       if not (Float.is_finite rr') then raise Exit;
       let beta = rr' /. !rr in
       rr := rr';
       Vec.xpby r beta p;
       incr iters
     done
   with Exit -> ());
  let res = sqrt !rr /. bnorm in
  { Krylov.x; iters = !iters; residual = res; converged = res <= tol }

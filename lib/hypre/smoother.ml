(** The AMG hierarchy's pointwise smoother: l1-Jacobi.

    A matvec plus a diagonal scaling — the shape that let the paper's
    BoomerAMG solve-phase port run its smoothing on cuSPARSE spmv. *)

(** Row l1 norms sum_k |a_ik|, each summed in ascending column-slot
    order. *)
let l1_norms (a : Linalg.Csr.t) =
  Array.init a.Linalg.Csr.m (fun i ->
      let l1 = ref 0.0 in
      for k = a.Linalg.Csr.row_ptr.(i) to a.Linalg.Csr.row_ptr.(i + 1) - 1 do
        l1 := !l1 +. Float.abs (Icoe_util.Fbuf.get a.Linalg.Csr.values k)
      done;
      !l1)

(** One sweep of x <- x + D_l1^{-1} (b - A x), in place; [l1] holds the
    row norms from {!l1_norms}, [r] is the residual workspace (one entry
    per row). Each row is scaled by its l1 norm: unconditionally
    convergent for symmetric M-matrices, and GPU-friendly. *)
let sweep (a : Linalg.Csr.t) ~l1 b x r =
  if Array.length l1 <> a.Linalg.Csr.m then
    invalid_arg
      (Printf.sprintf "Smoother.sweep: %d row norms for %d rows"
         (Array.length l1) a.Linalg.Csr.m);
  Linalg.Csr.spmv_into a x r;
  for i = 0 to a.Linalg.Csr.m - 1 do
    let ri = b.(i) -. r.(i) in
    let l1i = l1.(i) in
    if l1i > 0.0 then x.(i) <- x.(i) +. (ri /. l1i)
  done

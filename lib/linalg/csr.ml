(** Compressed sparse row matrices: the cuSPARSE analog.

    hypre's BoomerAMG solve phase and every Krylov solve on a matrix run
    on these. Includes the SpMV, sparse
    matrix-matrix product (for the Galerkin RAP), transpose and triplet
    assembly. *)

module Fbuf = Icoe_util.Fbuf

type t = {
  m : int;
  n : int;
  row_ptr : int array;  (** length m+1 *)
  col_idx : int array;
  values : Fbuf.t;  (** flat float64 Bigarray, one slot per stored entry *)
}

let nnz t = t.row_ptr.(t.m)

(** Build from (row, col, value) triplets; duplicates are summed. *)
let of_triplets ~m ~n triplets =
  List.iter
    (fun (name, v) ->
      if v < 0 then
        invalid_arg
          (Printf.sprintf "Csr.of_triplets: %s = %d is negative" name v))
    [ ("m", m); ("n", n) ];
  let cnt = Array.make m 0 in
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= m || j < 0 || j >= n then
        invalid_arg
          (Printf.sprintf "Csr.of_triplets: entry (%d, %d) outside %dx%d" i j
             m n);
      cnt.(i) <- cnt.(i) + 1)
    triplets;
  let row_ptr = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + cnt.(i)
  done;
  let k = row_ptr.(m) in
  let col_idx = Array.make k 0 and values = Array.make k 0.0 in
  let fill = Array.copy row_ptr in
  List.iter
    (fun (i, j, v) ->
      col_idx.(fill.(i)) <- j;
      values.(fill.(i)) <- v;
      fill.(i) <- fill.(i) + 1)
    triplets;
  (* sort each row by column and combine duplicates *)
  let out_cols = Array.make k 0 and out_vals = Array.make k 0.0 in
  let out_ptr = Array.make (m + 1) 0 in
  let pos = ref 0 in
  for i = 0 to m - 1 do
    out_ptr.(i) <- !pos;
    let s = row_ptr.(i) and e = row_ptr.(i + 1) in
    let row = Array.init (e - s) (fun t -> (col_idx.(s + t), values.(s + t))) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) row;
    Array.iter
      (fun (j, v) ->
        if !pos > out_ptr.(i) && out_cols.(!pos - 1) = j then
          out_vals.(!pos - 1) <- out_vals.(!pos - 1) +. v
        else begin
          out_cols.(!pos) <- j;
          out_vals.(!pos) <- v;
          incr pos
        end)
      row
  done;
  out_ptr.(m) <- !pos;
  {
    m;
    n;
    row_ptr = out_ptr;
    col_idx = Array.sub out_cols 0 !pos;
    values = Fbuf.of_array (Array.sub out_vals 0 !pos);
  }

let of_dense (d : Dense.t) =
  let triplets = ref [] in
  for i = d.Dense.m - 1 downto 0 do
    for j = d.Dense.n - 1 downto 0 do
      let v = Dense.get d i j in
      if v <> 0.0 then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~m:d.Dense.m ~n:d.Dense.n !triplets

let to_dense t =
  let d = Dense.create t.m t.n in
  for i = 0 to t.m - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Dense.update d i t.col_idx.(k) (fun v -> v +. Fbuf.get t.values k)
    done
  done;
  d

(* The SpMV inner loop: Bigarray values + unchecked index loads. The
   [s] accumulator is a non-escaping ref the compiler keeps in a
   register, and every access below compiles to a single load/store —
   this loop allocates nothing. Summation order per row is the storage
   order. *)
let spmv_rows t x y lo hi =
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = lo to hi - 1 do
    let s = ref 0.0 in
    let k0 = Array.unsafe_get row_ptr i
    and k1 = Array.unsafe_get row_ptr (i + 1) in
    for k = k0 to k1 - 1 do
      s :=
        !s
        +. (Fbuf.get values k
            *. Array.unsafe_get x (Array.unsafe_get col_idx k))
    done;
    Array.unsafe_set y i !s
  done

(* the SpMV entry guard, once per call: [fn], the matrix shape and both
   vector lengths in the message *)
let check_spmv fn t x y =
  if Array.length x <> t.n || Array.length y <> t.m then
    invalid_arg
      (Printf.sprintf "Csr.%s: x has length %d, y %d for a %dx%d matrix" fn
         (Array.length x) (Array.length y) t.m t.n)

(** y <- A x into a preallocated output, in the calling domain. *)
let spmv_into t x y =
  check_spmv "spmv_into" t x y;
  spmv_rows t x y 0 t.m

(** [spmv_into] under its own name in the shape-check message. *)
let spmv_seq_into t x y =
  check_spmv "spmv_seq_into" t x y;
  spmv_rows t x y 0 t.m

(** y <- A x (fresh array). *)
let spmv t x =
  let y = Array.make t.m 0.0 in
  spmv_into t x y;
  y

let transpose t =
  let cnt = Array.make (t.n + 1) 0 in
  Array.iter (fun j -> cnt.(j + 1) <- cnt.(j + 1) + 1) t.col_idx;
  for j = 0 to t.n - 1 do
    cnt.(j + 1) <- cnt.(j + 1) + cnt.(j)
  done;
  let row_ptr = Array.copy cnt in
  let col_idx = Array.make (nnz t) 0 and values = Fbuf.create (nnz t) in
  for i = 0 to t.m - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      col_idx.(cnt.(j)) <- i;
      Fbuf.set values cnt.(j) (Fbuf.get t.values k);
      cnt.(j) <- cnt.(j) + 1
    done
  done;
  { m = t.n; n = t.m; row_ptr; col_idx; values }

(** Sparse C = A * B with a dense workspace row (Gustavson). *)
let matmul a b =
  if a.n <> b.m then
    invalid_arg
      (Printf.sprintf "Csr.matmul: %dx%d times %dx%d" a.m a.n b.m b.n);
  let mark = Array.make b.n (-1) in
  let acc = Array.make b.n 0.0 in
  let rows = ref [] in
  let total = ref 0 in
  for i = 0 to a.m - 1 do
    let cols = ref [] in
    for ka = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let k = a.col_idx.(ka) and av = Fbuf.get a.values ka in
      for kb = b.row_ptr.(k) to b.row_ptr.(k + 1) - 1 do
        let j = b.col_idx.(kb) in
        if mark.(j) <> i then begin
          mark.(j) <- i;
          acc.(j) <- 0.0;
          cols := j :: !cols
        end;
        acc.(j) <- acc.(j) +. (av *. Fbuf.get b.values kb)
      done
    done;
    let cs = List.sort Int.compare !cols in
    let row = List.map (fun j -> (j, acc.(j))) cs in
    total := !total + List.length row;
    rows := row :: !rows
  done;
  let rows = Array.of_list (List.rev !rows) in
  let row_ptr = Array.make (a.m + 1) 0 in
  let col_idx = Array.make !total 0 and values = Fbuf.create !total in
  let pos = ref 0 in
  for i = 0 to a.m - 1 do
    row_ptr.(i) <- !pos;
    List.iter
      (fun (j, v) ->
        col_idx.(!pos) <- j;
        Fbuf.set values !pos v;
        incr pos)
      rows.(i);
  done;
  row_ptr.(a.m) <- !pos;
  { m = a.m; n = b.n; row_ptr; col_idx; values }

(** Scale: A <- diag(d) * A, in place on a copy. *)
let scale_rows t d =
  if Array.length d <> t.m then
    invalid_arg
      (Printf.sprintf "Csr.scale_rows: length %d for %d rows"
         (Array.length d) t.m);
  let values = Fbuf.copy t.values in
  for i = 0 to t.m - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Fbuf.set values k (Fbuf.get values k *. d.(i))
    done
  done;
  { t with values }

(** Standard 5-point 2D Laplacian on an nx x ny grid (Dirichlet). *)
let laplacian_2d nx ny =
  let idx i j = i + (nx * j) in
  let triplets = ref [] in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let r = idx i j in
      triplets := (r, r, 4.0) :: !triplets;
      if i > 0 then triplets := (r, idx (i - 1) j, -1.0) :: !triplets;
      if i < nx - 1 then triplets := (r, idx (i + 1) j, -1.0) :: !triplets;
      if j > 0 then triplets := (r, idx i (j - 1), -1.0) :: !triplets;
      if j < ny - 1 then triplets := (r, idx i (j + 1), -1.0) :: !triplets
    done
  done;
  of_triplets ~m:(nx * ny) ~n:(nx * ny) !triplets

(** 7-point 3D Laplacian. *)
let laplacian_3d nx ny nz =
  let idx i j k = i + (nx * (j + (ny * k))) in
  let triplets = ref [] in
  for k = 0 to nz - 1 do
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let r = idx i j k in
        triplets := (r, r, 6.0) :: !triplets;
        if i > 0 then triplets := (r, idx (i - 1) j k, -1.0) :: !triplets;
        if i < nx - 1 then triplets := (r, idx (i + 1) j k, -1.0) :: !triplets;
        if j > 0 then triplets := (r, idx i (j - 1) k, -1.0) :: !triplets;
        if j < ny - 1 then triplets := (r, idx i (j + 1) k, -1.0) :: !triplets;
        if k > 0 then triplets := (r, idx i j (k - 1), -1.0) :: !triplets;
        if k < nz - 1 then triplets := (r, idx i j (k + 1), -1.0) :: !triplets
      done
    done
  done;
  of_triplets ~m:(nx * ny * nz) ~n:(nx * ny * nz) !triplets

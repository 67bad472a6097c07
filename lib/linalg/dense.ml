(** Dense matrices (row-major) with LU factorization.

    The LU path is the stand-in for cuSOLVER: Cretin's direct rate-matrix
    inversions and small FEM element solves go through here. *)

type t = { m : int; n : int; a : float array }

let create m n = { m; n; a = Array.make (m * n) 0.0 }

let init m n f =
  { m; n; a = Array.init (m * n) (fun k -> f (k / n) (k mod n)) }

(* kept out of [get]/[set] so the hot path is one compare chain *)
let bad_index fn t i j =
  invalid_arg
    (Printf.sprintf "Dense.%s: index (%d, %d) outside a %dx%d matrix" fn i j
       t.m t.n)

let get t i j =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then bad_index "get" t i j;
  t.a.((i * t.n) + j)

let set t i j v =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then bad_index "set" t i j;
  t.a.((i * t.n) + j) <- v

let update t i j f = set t i j (f (get t i j))

let copy t = { t with a = Array.copy t.a }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let transpose t = init t.n t.m (fun i j -> get t j i)

(** y <- A x *)
let matvec t x =
  if Array.length x <> t.n then
    invalid_arg
      (Printf.sprintf "Dense.matvec: vector of length %d for a %dx%d matrix"
         (Array.length x) t.m t.n);
  let y = Array.make t.m 0.0 in
  for i = 0 to t.m - 1 do
    let s = ref 0.0 in
    let base = i * t.n in
    for j = 0 to t.n - 1 do
      s := !s +. (t.a.(base + j) *. x.(j))
    done;
    y.(i) <- !s
  done;
  y

let matmul a b =
  if a.n <> b.m then
    invalid_arg
      (Printf.sprintf "Dense.matmul: %dx%d times %dx%d" a.m a.n b.m b.n);
  let c = create a.m b.n in
  for i = 0 to a.m - 1 do
    for k = 0 to a.n - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.n - 1 do
          c.a.((i * c.n) + j) <- c.a.((i * c.n) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

exception Singular of int

type lu = { lu : t; piv : int array }

(** LU with partial pivoting. Raises [Singular k] on a zero pivot column. *)
let lu_factor t =
  if t.m <> t.n then
    invalid_arg
      (Printf.sprintf "Dense.lu_factor: %dx%d matrix is not square" t.m t.n);
  let n = t.n in
  let a = copy t in
  let piv = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* pivot search *)
    let p = ref k in
    let best = ref (Float.abs (get a k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get a i k) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Singular k);
    if !p <> k then begin
      (* swap rows k and p *)
      for j = 0 to n - 1 do
        let tmp = get a k j in
        set a k j (get a !p j);
        set a !p j tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tp
    end;
    let akk = get a k k in
    for i = k + 1 to n - 1 do
      let lik = get a i k /. akk in
      set a i k lik;
      for j = k + 1 to n - 1 do
        set a i j (get a i j -. (lik *. get a k j))
      done
    done
  done;
  { lu = a; piv }

(** Solve A x = b into [x] given a factorization; the factor's array is
    indexed directly, so the solve allocates nothing. *)
let lu_solve_into { lu = { n; a; _ }; piv } b x =
  if Array.length b <> n || Array.length x <> n then
    invalid_arg
      (Printf.sprintf "Dense.lu_solve_into: b has length %d, x has length %d, order %d"
         (Array.length b) (Array.length x) n);
  for i = 0 to n - 1 do
    x.(i) <- b.(piv.(i))
  done;
  (* forward: L y = Pb, unit diagonal *)
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* backward: U x = y *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done

(** Solve A x = b given a factorization (fresh x). *)
let lu_solve f b =
  let x = Array.make f.lu.n 0.0 in
  lu_solve_into f b x;
  x

(** One-shot solve. *)
let solve t b = lu_solve (lu_factor t) b

let frobenius t = sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 t.a)

(** Small descriptive-statistics helpers used by experiment harnesses. *)

(* the sum in index order from 0.0, unboxed *)
let sum (a : float array) =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. Array.unsafe_get a i
  done;
  !s

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) ** 2.0)) 0.0 a in
    acc /. float_of_int (n - 1)

let stddev a = sqrt (variance a)

(* [Stdlib.min]/[max] folded in index order, on unboxed floats *)
let min_max (a : float array) =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty array";
  let lo = ref a.(0) and hi = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let x = Array.unsafe_get a i in
    if not (!lo <= x) then lo := x;
    if not (!hi >= x) then hi := x
  done;
  (!lo, !hi)

(* [Float.compare b a < 0], unboxed: [b] sorts strictly before [a] (NaN
   first) *)
let below (b : float) (a : float) = b < a || (b <> b && a = a)

(* merge the sorted runs [lo, mid) and [mid, hi) of [src] into [dst],
   taking from the left run on ties *)
let merge (src : float array) (dst : float array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && not (below (Array.unsafe_get src !j) (Array.unsafe_get src !i)))
    then begin
      Array.unsafe_set dst k (Array.unsafe_get src !i);
      incr i
    end
    else begin
      Array.unsafe_set dst k (Array.unsafe_get src !j);
      incr j
    end
  done

(** Sorted copy for repeated quantile queries: a bottom-up stable merge
    sort on unboxed floats in [Float.compare] order (total, NaN first),
    which allocates only the copy and one buffer. *)
let presort a =
  let n = Array.length a in
  let src = ref (Array.copy a) and dst = ref (Array.create_float n) in
  let width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (mid + !width) in
      merge !src !dst !lo mid hi;
      lo := hi
    done;
    let t = !src in
    src := !dst;
    dst := t;
    width := 2 * !width
  done;
  !src

(** p in [0,1]; linear interpolation between the order statistics of an
    already-sorted array (see [presort]) — sort once, query many. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g outside [0, 1]" p);
  let idx = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor idx) in
  let hi = int_of_float (Float.ceil idx) in
  if lo = hi then s.(lo)
  else
    let w = idx -. float_of_int lo in
    ((1.0 -. w) *. s.(lo)) +. (w *. s.(hi))

let percentile a p = percentile_sorted (presort a) p
let median a = percentile a 0.5

(* the guard of the two-array measures: [fn] and both lengths *)
let check_lengths fn a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Stats.%s: lengths %d and %d differ" fn (Array.length a)
         (Array.length b))

(** Relative L2 error ||a - b|| / ||b||. *)
let rel_l2_error a b =
  check_lengths "rel_l2_error" a b;
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      num := !num +. (d *. d);
      den := !den +. (b.(i) *. b.(i)))
    a;
  if !den = 0.0 then sqrt !num else sqrt (!num /. !den)

let max_abs_diff a b =
  check_lengths "max_abs_diff" a b;
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := max !m (Float.abs (x -. b.(i)))) a;
  !m

(** Small descriptive-statistics helpers used by experiment harnesses. *)

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) ** 2.0)) 0.0 a in
    acc /. float_of_int (n - 1)

let stddev a = sqrt (variance a)

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (a.(0), a.(0))
    a

let sum = Array.fold_left ( +. ) 0.0

(** Sorted copy for repeated quantile queries. [Float.compare] (total
    order, NaN first) keeps the sort monomorphic — the polymorphic
    [compare] walks the runtime representation on every comparison. *)
let presort a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

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

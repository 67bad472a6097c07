(** Deterministic, splittable pseudo-random streams (splitmix64).

    Every stochastic component of the workload takes an explicit [Rng.t] so
    that tests and experiments are exactly reproducible across runs and
    machines. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: one 64-bit multiply-xor-shift round per draw. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** Independent child stream; advancing the child never perturbs the parent. *)
let split t =
  let s = next_int64 t in
  { state = Int64.mul s 0x2545F4914F6CDD1DL }

(** Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(** Uniform float in [lo, hi). *)
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(** Uniform int in [0, n). Requires n > 0. Rejection sampling: the draw
    is uniform over [0, 2^62) and 2^62 is rarely a multiple of [n], so a
    bare [mod] overweights small remainders; redrawing whenever the value
    lands in the final partial bucket removes the bias while leaving the
    accepted stream (and thus existing golden values) unchanged. *)
let rec int t n =
  if not (n > 0) then
    invalid_arg (Printf.sprintf "Rng.int: bound %d is not positive" n);
  (* shift by 2 keeps the value within OCaml's 63-bit native int range *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  let r = v mod n in
  (* v - r is the bucket base; the bucket is partial iff it extends past
     max_int = 2^62 - 1 *)
  if v - r > max_int - n + 1 then int t n else r

let bool t = float t < 0.5

(** Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = max 1e-300 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let normal t ~mu ~sigma = mu +. (sigma *. gaussian t)

(** Exponential with given [rate] (mean 1/rate). *)
let exponential t ~rate =
  if not (rate > 0.0) then
    invalid_arg (Printf.sprintf "Rng.exponential: rate %g is not positive" rate);
  -.log (max 1e-300 (float t)) /. rate

(** Sample an index from unnormalized nonneg weights at quantile [u] in
    [0, 1). The walk is capped at the last positive-weight index, so no
    float quirk (e.g. the total overflowing to infinity, which makes
    every [x < acc] comparison false) can ever select a trailing
    zero-weight category. Pure; exposed so boundary cases are testable. *)
let categorical_from u weights =
  if not (u >= 0.0 && u < 1.0) then
    invalid_arg (Printf.sprintf "Rng.categorical_from: u = %g outside [0, 1)" u);
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then
    invalid_arg
      (Printf.sprintf "Rng.categorical_from: weights sum to %g, not positive"
         total);
  let x = u *. total in
  let last = ref 0 in
  Array.iteri (fun i w -> if w > 0.0 then last := i) weights;
  let rec go i acc =
    if i >= !last then !last
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let categorical t weights = categorical_from (float t) weights

(** Fisher-Yates shuffle in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

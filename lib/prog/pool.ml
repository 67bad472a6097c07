(** Umpire-style memory pools.

    SAMRAI's GPU port allocates everything from pools to amortize raw
    allocation cost (Sec 4.10.5). The pool model charges an expensive
    backing allocation only on high-water-mark growth; pooled (re)allocation
    is nearly free. Statistics feed the SAMRAI ablation bench. *)

type t = {
  name : string;
  mutable high_water_bytes : float;
  mutable in_use_bytes : float;
  mutable raw_allocs : int;
  mutable pooled_allocs : int;
}

(* cudaMalloc-like cost per backing allocation, and per pooled
   (re)allocation *)
let raw_alloc_cost_s = 100e-6
let pooled_alloc_cost_s = 0.3e-6

let create name =
  {
    name;
    high_water_bytes = 0.0;
    in_use_bytes = 0.0;
    raw_allocs = 0;
    pooled_allocs = 0;
  }

(** Allocate [bytes]; charges [clock] with either a pooled or a raw cost. *)
let alloc t ~bytes ~(clock : Hwsim.Clock.t) =
  if not (bytes >= 0.0) then
    invalid_arg (Printf.sprintf "Pool.alloc: bytes = %g is not >= 0" bytes);
  t.in_use_bytes <- t.in_use_bytes +. bytes;
  if t.in_use_bytes > t.high_water_bytes then begin
    t.high_water_bytes <- t.in_use_bytes;
    t.raw_allocs <- t.raw_allocs + 1;
    Hwsim.Clock.tick clock ~phase:"alloc" raw_alloc_cost_s
  end
  else begin
    t.pooled_allocs <- t.pooled_allocs + 1;
    Hwsim.Clock.tick clock ~phase:"alloc" pooled_alloc_cost_s
  end

let free t ~bytes =
  if not (bytes >= 0.0) then
    invalid_arg (Printf.sprintf "Pool.free: bytes = %g is not >= 0" bytes);
  t.in_use_bytes <- max 0.0 (t.in_use_bytes -. bytes)

(** What the same allocation pattern would have cost without a pool. *)
let unpooled_cost t =
  float_of_int (t.raw_allocs + t.pooled_allocs) *. raw_alloc_cost_s

let pooled_cost t =
  (float_of_int t.raw_allocs *. raw_alloc_cost_s)
  +. (float_of_int t.pooled_allocs *. pooled_alloc_cost_s)

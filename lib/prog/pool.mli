(** Umpire-style memory pools (Sec 4.10.5).

    SAMRAI's GPU port allocates everything from pools to amortize raw
    allocation cost: an expensive backing allocation is charged only on
    high-water-mark growth, pooled (re)allocations are nearly free. *)

type t = {
  name : string;
  mutable high_water_bytes : float;
  mutable in_use_bytes : float;
  mutable raw_allocs : int;
  mutable pooled_allocs : int;
}

val create : string -> t
(** A raw backing allocation costs 100 us, a pooled one 0.3 us. *)

val alloc : t -> bytes:float -> clock:Hwsim.Clock.t -> unit
(** Charge the clock with a pooled or raw allocation cost. *)

val free : t -> bytes:float -> unit

val unpooled_cost : t -> float
(** What the same allocation pattern would have cost without a pool. *)

val pooled_cost : t -> float

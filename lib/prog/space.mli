(** Memory spaces and placed arrays.

    A [Darray.t] wraps a real [float array] plus a placement tag. Moving
    it between spaces charges the host link on a clock — so "keep data
    resident on the GPU", the paper's most repeated lesson, is visible as
    a measurable cost when violated. *)

type space = Host_mem | Device_mem | Unified

module Darray : sig
  type t = {
    mutable data : float array;
    mutable space : space;
    mutable device_copy_valid : bool;
  }

  val create : ?space:space -> int -> t

  val move : t -> to_:space -> link:Hwsim.Link.t -> clock:Hwsim.Clock.t -> unit
  (** Explicit migration; charges the link (no charge if already there).
      Unified-memory moves pay per-page fault costs. *)

  val ensure : t -> side:Policy.side -> link:Hwsim.Link.t -> clock:Hwsim.Clock.t -> unit
  (** Make the array visible to executions on [side], migrating if not. *)
end

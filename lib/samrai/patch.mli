(** Patches: a box plus named cell-centred data arrays with ghost cells,
    allocated from an Umpire-style pool so repeated allocations are
    amortized (the Sec 4.10.5 performance ingredient). *)

type t = {
  box : Box.t;  (** interior cells *)
  ghosts : int;
  gbox : Box.t;  (** [box] grown by [ghosts]: the extent of each field *)
  data : (string, float array) Hashtbl.t;
  pool : Prog.Pool.t option;
  clock : Hwsim.Clock.t option;
}

val create : ?ghosts:int -> ?pool:Prog.Pool.t -> ?clock:Hwsim.Clock.t -> Box.t -> t

val alloc_field : t -> string -> unit
(** Idempotent; charges the pool when present. *)

val get : t -> string -> i:int -> j:int -> float
(** Raises [Invalid_argument], naming the function and the cell, on a
    cell outside the ghosted box (also {!set}). *)

val set : t -> string -> i:int -> j:int -> float -> unit

val iter_interior : t -> (i:int -> j:int -> unit) -> unit

val fill_ghosts_from : t -> string -> src:t -> unit
(** Copy overlapping interior values of a sibling into this patch's
    ghosts. *)

val fill_physical_ghosts : t -> string -> domain:Box.t -> unit
(** Reflecting (zero-gradient) fill on the domain boundary. *)

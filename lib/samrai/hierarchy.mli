(** Patch hierarchy: one level of patches tiling a base domain. Patch
    data goes through the Umpire-style pool, so allocation costs show on
    the simulated clock. *)

type t = { domain : Box.t; patches : Patch.t list }

val create : fields:string list -> Box.t -> t
(** Four patches with one ghost cell each, every field allocated. *)

val total_cells : t -> int

val fill_ghosts : t -> string -> unit
(** Sibling ghost exchange plus reflecting physical boundaries. *)

(** Patch hierarchy: levels of patch sets over a base domain. Level 0
    tiles the whole domain. Patch data goes through the Umpire-style
    pool, so allocation costs show on the simulated clock. *)

type level = { patches : Patch.t list; ratio : int  (** vs level 0 *) }

type t = { domain : Box.t; levels : level array }

val create : ?ghosts:int -> ?patches_per_level:int -> fields:string list -> Box.t -> t

val num_levels : t -> int
val level : t -> int -> level
val level_cells : level -> int
val total_cells : t -> int

val fill_level_ghosts : t -> int -> string -> unit
(** Sibling ghost exchange plus reflecting physical boundaries. *)

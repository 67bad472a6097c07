(** Patch hierarchy: levels of refined patch sets over a base domain.
    Level 0 tiles the whole domain; finer levels cover subregions at
    higher resolution. Patch data goes through the Umpire-style pool, so
    regridding costs show on the simulated clock. *)

type level = { patches : Patch.t list; ratio : int  (** vs level 0 *) }

type t = {
  domain : Box.t;
  mutable levels : level array;
  pool : Prog.Pool.t;
  clock : Hwsim.Clock.t;
  ghosts : int;
  fields : string list;
}

val create : ?ghosts:int -> ?patches_per_level:int -> fields:string list -> Box.t -> t

val num_levels : t -> int
val level : t -> int -> level
val level_cells : level -> int
val total_cells : t -> int

val add_refined_level : ?patches:int -> t -> region:Box.t -> ratio:int -> unit
(** Add a level covering [region] (level-0 coordinates) at [ratio] x the
    current finest resolution. *)

val fill_level_ghosts : t -> int -> string -> unit
(** Sibling ghost exchange plus reflecting physical boundaries. *)

val coarsen_field : t -> fine_idx:int -> coarse_idx:int -> string -> unit
(** Conservative average of fine data onto underlying coarse cells. *)

val regrid_on_gradient :
  ?ratio:int -> ?patches:int -> ?pad:int -> t -> name:string ->
  threshold:float -> bool
(** Tag steep gradients on the finest level and add a refined level over
    their bounding box; returns whether a level was created. *)

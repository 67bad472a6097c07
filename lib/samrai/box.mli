(** Index boxes: the SAMRAI unit of structured-mesh bookkeeping. *)

type t = { ilo : int; jlo : int; ihi : int; jhi : int }

val make : ilo:int -> jlo:int -> ihi:int -> jhi:int -> t
(** Requires non-inverted extents. *)

val ni : t -> int
val nj : t -> int
val size : t -> int

val contains : t -> i:int -> j:int -> bool

val intersect : t -> t -> t option

val grow : t -> int -> t
(** Grow by n cells in every direction (ghost region). *)

val split : t -> int -> t list
(** At most n roughly equal sub-boxes along the long axis; the pieces
    partition the box exactly. *)

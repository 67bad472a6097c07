(** Cartesian 2D quad meshes with tensor-product H1 dof numbering:
    (nx x ny) elements on [0,lx] x [0,ly]; order-p continuous dofs on the
    per-dimension GLL lattice, (nx*p + 1) x (ny*p + 1) global points. *)

type t = {
  nx : int;
  ny : int;
  p : int;
  lx : float;
  ly : float;
  ndof_x : int;
  ndof_y : int;
}

val create : ?lx:float -> ?ly:float -> nx:int -> ny:int -> p:int -> unit -> t

val num_elements : t -> int
val num_dofs : t -> int
val hx : t -> float
val hy : t -> float

val global_dof : t -> ex:int -> ey:int -> i:int -> j:int -> int
(** Global index of local tensor node (i, j) of element (ex, ey);
    shared-edge dofs coincide across neighbouring elements. *)

val dof_coords : t -> float array -> int -> float * float
(** Physical coordinates of a global dof given the basis nodal points. *)

val boundary_dofs : t -> int list

val gather : t -> float array -> ex:int -> ey:int -> float array -> unit
(** Element-local dof values (row-major (p+1)^2) from a global vector. *)

val scatter_add : t -> float array -> ex:int -> ey:int -> float array -> unit

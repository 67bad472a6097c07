(** The 2D plane-strain elastic-wave spatial operator: 4th-order central
    differences on the displacement formulation — the sw4lite kernel
    shape: wide stencils, bandwidth-heavy, the paper's shared-memory
    optimization target.

    Fields are {!Icoe_util.Fbuf} buffers (flat float64 Bigarrays) read
    and written with unchecked single-load access; the stencil sweeps
    allocate nothing. The arithmetic is unchanged from the boxed
    layout, so results are bit-identical to the PR 3 kernels. *)

val d1x : Grid.t -> Icoe_util.Fbuf.t -> int -> int -> float
(** 4th-order first derivative along x at (i, j); needs a 2-point halo. *)

val d1y : Grid.t -> Icoe_util.Fbuf.t -> int -> int -> float

type scratch = {
  sxx : Icoe_util.Fbuf.t;
  syy : Icoe_util.Fbuf.t;
  sxy : Icoe_util.Fbuf.t;
}

val make_scratch : Grid.t -> scratch

val margin : int
(** Cells near the boundary held fixed (the wide stencil can't reach). *)

val row_chunk : int
(** Grid rows per pool chunk — a fixed constant so the chunk layout is
    deterministic for any pool size. *)

val acceleration :
  Grid.t -> scratch -> ux:Icoe_util.Fbuf.t -> uy:Icoe_util.Fbuf.t ->
  ax:Icoe_util.Fbuf.t -> ay:Icoe_util.Fbuf.t -> unit
(** Stress pass then divergence pass; writes the interior beyond
    [margin]. Both passes are row-parallel on the {!Icoe_par.Pool} with
    a barrier in between; writes are row-disjoint, so the result is
    bit-identical to {!acceleration_seq} for any pool size. *)

val acceleration_seq :
  Grid.t -> scratch -> ux:Icoe_util.Fbuf.t -> uy:Icoe_util.Fbuf.t ->
  ax:Icoe_util.Fbuf.t -> ay:Icoe_util.Fbuf.t -> unit
(** Serial reference evaluation of the same operator. *)

val work_of_points : int -> Hwsim.Kernel.t
(** Flop/byte volume of one evaluation over that many grid points: a
    pure function of the size, so cost models price a step without
    building a grid. *)

val work : Grid.t -> Hwsim.Kernel.t
(** [work_of_points] of the grid's [nx * ny]. *)

(** Linked-cell neighbour search: O(N) pair enumeration for short-range
    potentials under periodic boundaries. *)

type t = {
  ncell : int;  (** cells per dimension *)
  cell_size : float;
  head : int array;
  next : int array;
}

val cell_coord : ncell:int -> cell_size:float -> float -> int
(** Coordinate to cell index along one axis, clamped into
    [0, ncell-1] on both ends — unwrapped slightly-negative coordinates
    bin to cell 0 rather than indexing out of bounds. *)

val build : ?prev:t -> Particles.t -> cutoff:float -> t
(** Cell size >= cutoff; the per-side count is capped near cbrt(n) so
    sparse systems don't pay for empty cells. Pass the previous build
    as [?prev] to reuse its arrays when the geometry is unchanged —
    steady-state rebuilds then allocate nothing but the record. *)

val iter_pairs : t -> Particles.t -> cutoff:float -> (int -> int -> unit) -> unit
(** Each unordered pair within the cutoff exactly once (half-shell
    enumeration; all-pairs fallback on very small grids). *)

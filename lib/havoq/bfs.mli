(** Breadth-first search: top-down and the direction-optimizing hybrid
    (Beamer-style) that Graph500 codes use. *)

type stats = {
  parents : int array;  (** -1 for unreached; parents.(src) = src *)
  reached : int;
  edges_traversed : int;
  iterations : int;
  switches : int;  (** top-down <-> bottom-up transitions (hybrid only) *)
}

val top_down : Graph.t -> src:int -> stats

val hybrid : Graph.t -> src:int -> stats
(** Direction-optimizing BFS: switches to bottom-up when the frontier's
    edge count grows past 1/15 of the unexplored edges, back when the
    frontier shrinks below n/18. Traverses far fewer edges on skewed
    graphs. *)

val validate : Graph.t -> src:int -> stats -> bool
(** Graph500-style tree validation: every parent edge exists and levels
    are consistent with a reference BFS. *)

(** In-memory graphs in CSR form plus the Graph500-style Kronecker (RMAT)
    generator that HavoqGT-scale runs are measured on. *)

type t = {
  n : int;  (** vertices *)
  m : int;  (** directed edges (both directions stored for undirected) *)
  row_ptr : int array;
  adj : int array;
}

val degree : t -> int -> int

val of_edges : n:int -> (int * int) list -> t
(** Build an undirected graph (each edge stored in both directions). *)

val rmat : rng:Icoe_util.Rng.t -> scale:int -> unit -> t
(** RMAT generator: 2^scale vertices, 16 * 2^scale edges (the Graph500
    edge factor), Graph500 parameters (0.57, 0.19, 0.19). Self-loops
    dropped; multi-edges kept, as in Graph500. *)

val erdos_renyi : rng:Icoe_util.Rng.t -> n:int -> edges:int -> unit -> t
(** Uniform random graph for comparison (no degree skew). *)

(** Heterogeneous work-partitioning auto-tuner study: {!Opt.Autotune}
    applied to the SW4/ddcMD/KAVG overlap-wired step models across a
    paper-era machine, Frontier and Grace-Hopper — tuned vs
    paper-default placements, exhaustive vs annealed search. *)

val harness : Harness.t
(** The ["tune"] study. *)

type row = {
  kernel : string;  (** "sw4" | "md" | "kavg" *)
  machine : string;
  default_s : float;  (** paper-default (all-GPU, dedicated) makespan *)
  tuned_s : float;  (** tuned makespan; never worse than [default_s] *)
  split : float;  (** tuned accelerator share *)
  comm : string;  (** tuned communication placement *)
  speedup : float;  (** [default_s /. tuned_s] *)
  evaluations : int;
  mode : string;
}

val bench_rows : unit -> row list
(** One exhaustive tuning per machine x kernel on the default lattice —
    the table whose makespans the harness records as [tuner/*] rows.
    Deterministic. *)

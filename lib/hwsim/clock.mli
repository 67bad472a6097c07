(** Simulated-time accumulator with named phases.

    Experiments charge kernel and transfer times here; harnesses read back
    both the total and the per-phase breakdown (Figs. 2 and 8 of the paper
    are breakdown charts). *)

type t

val create : unit -> t
val reset : t -> unit

val tick : t -> phase:string -> float -> unit
(** Charge nonnegative seconds to a named phase. Like {!attribute} and
    {!advance}, raises [Invalid_argument] naming [dt] unless [dt >= 0]
    (NaN included). *)

val attribute : t -> phase:string -> float -> unit
(** Charge nonnegative seconds to a phase's breakdown WITHOUT advancing
    the total. Used by {!Sched} for overlapped work: per-phase busy
    seconds keep accumulating while the total only moves by the
    schedule's critical path. After overlapped charging, the sum of
    {!breakdown} can exceed {!total} — that surplus is exactly the
    hidden (overlapped) time. *)

val advance : t -> float -> unit
(** Advance the total by nonnegative seconds without charging a phase
    (the critical-path counterpart of {!attribute}). *)

val total : t -> float

val phase : t -> string -> float
(** Accumulated seconds of one phase (0 if never charged). *)

val breakdown : t -> (string * float) list
(** Phases in first-charged order. *)

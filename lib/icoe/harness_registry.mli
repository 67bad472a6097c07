(** The registry of every experiment harness. [bin/icoe_report], the
    bench executable and the tests all dispatch through this table —
    nothing else enumerates harnesses. *)

val all : Harness.t list
(** Every registered harness, in presentation order: paper tables and
    figures first, then the per-activity studies, ablations last. Ids
    are unique. *)

val ids : unit -> string list
(** Ids of {!all}, in order. *)

val find : string -> Harness.t option

val traced : unit -> Harness.t list
(** The harnesses that record {!Hwsim.Trace.t}s (tag ["traced"]); the
    default set for the CLI's [--trace] export. *)

val run_all : unit -> string
(** Rendered reports of {!all}, concatenated with blank lines. *)

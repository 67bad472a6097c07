(** First-class experiment harnesses.

    A harness is one reproduced table/figure/study of the paper: an id,
    a human description, a set of tags, and a [run] function returning a
    structured {!outcome} instead of a bare string. The outcome carries
    the rendered report plus everything the observability layers caught
    while the harness ran — the {!Hwsim.Trace.t}s it recorded, the
    engine work it added to the {!Icoe_obs.Metrics} default registry,
    and the typed rows and named checks it computed — so callers (the
    CLI, the bench executable, the tests) no longer scrape global state
    or report prose after the fact. Results go only through the report
    and the rows: a harness registers no metric of its own.

    Harnesses are registered in {!Harness_registry.all}; each activity
    contributes its own [Harness_*] module. *)

type row = Icoe_obs.Bench_diff.measurement = {
  section : string;
  name : string;
  value : float;
  unit : string;
  klass : Icoe_obs.Bench_diff.klass;
  higher_better : bool;
}
(** One measurement, as it lands in [BENCH_<id>.json]. *)

type outcome = {
  report : string;  (** rendered text, paper reference values alongside *)
  traces : (string * Hwsim.Trace.t) list;
      (** simulated-time traces recorded via {!record_trace} during the
          run, in recording order *)
  metrics : Icoe_obs.Metrics.sample list;
      (** the engine work and state the run added to the default metrics
          registry ({!Icoe_obs.Metrics.diff} of snapshots taken around
          [run]); deterministic, like the report *)
  rows : row list;  (** recorded via {!record_row}, in order *)
  checks : (string * bool) list;
      (** recorded via {!record_check}, in order; [false] failed *)
  artifacts : (string * (unit -> string)) list;
      (** named renderable artifacts (e.g. a cluster-occupancy Chrome
          trace) recorded via {!record_artifact}; kept as thunks so a
          potentially large document is only built when a caller
          actually writes it out *)
}

type t = {
  id : string;  (** stable CLI id, e.g. ["fig2"] *)
  description : string;
  tags : string list;
      (** kind tags ["figure"]/["table"]/["study"], an ["activity:*"]
          tag, and ["traced"] for harnesses that record spans *)
  run : unit -> outcome;
}

val make :
  id:string -> description:string -> ?tags:string list ->
  (unit -> string) -> t
(** [make ~id ~description ~tags f] wraps a report-producing function:
    [run] snapshots the default metrics registry around [f ()], scopes
    {!record_trace}, {!record_row}, {!record_check} and
    {!record_artifact} to this run, and assembles the {!outcome}. *)

val run_isolated : t -> outcome
(** [run_isolated h] is [h.run ()], except that a raising harness gives
    an outcome instead of an exception: its report is a one-section
    "[<id> failed]" note with the exception text, its only check is
    [<id>/ran = false] (so [icoe_report run] exits 1 and BENCH records
    the failure), and the exception text is emitted as an ["error"]
    event from source ["harness/<id>"]. The CLI and the bench run every
    harness through it, so one failure does not stop the others. *)

(** {1 Recording} Each [record_*] attaches to the outcome of the harness
    currently running; outside a harness body it is dropped. *)

val record_trace : string -> Hwsim.Trace.t -> unit

val record_row :
  section:string -> unit:string -> ?klass:Icoe_obs.Bench_diff.klass ->
  ?higher_better:bool -> string -> float -> unit
(** [record_row ~section ~unit name value]; [klass] defaults to [Sim],
    [higher_better] to [false]. *)

val record_check : string -> bool -> unit
(** [record_check name ok]: a named acceptance check; [icoe_report run]
    exits 1 when one is [false]. *)

val record_overlap : string -> serial_s:float -> overlapped_s:float -> float
(** [record_overlap id ~serial_s ~overlapped_s] returns the overlap
    efficiency [overlapped_s /. serial_s] and records the rows
    [overlap/<id>/serial_s] and [/overlapped_s] and the check
    [<id>/overlap/hides-work] ([0 < overlapped_s < serial_s]). Harnesses
    call it only when {!Hwsim.Sched.overlap_enabled}, so
    [ICOE_OVERLAP=0] output stays bit-identical. *)

val record_blame : string -> Icoe_obs.Prof.analysis -> unit
(** [record_blame id a] records one [blame/<id>/<phase>] row per phase
    and the check [<id>/blame/shares-valid]. Same gating contract as
    {!record_overlap}. *)

val record_recovery :
  string -> Icoe_fault.Checkpoint.report -> identical:bool -> unit
(** A checkpoint/restart run under a fault plan: the row
    [fault/<id>/achieved_s] and the checks [<id>/fault/recovered] (at
    least one failure struck, every one recovered),
    [<id>/fault/inflation>1] and [<id>/fault/identical] (recovered
    state equals the fault-free run's bit for bit). *)

val record_artifact : string -> (unit -> string) -> unit
(** The thunk is forced only when a caller writes the artifact out. *)

val section : string -> string -> string
(** [section title body] renders one report section ([### title]). *)

val simulated_seconds : outcome -> float
(** Sum of {!Hwsim.Trace.total} over the outcome's traces: the simulated
    time the harness accounted for (0 for untraced harnesses). *)

val rollup_report : (string * Hwsim.Trace.t) list -> string
(** Per-device/per-phase/top-span rollup tables for a set of named
    traces; [""] when the list is empty. *)

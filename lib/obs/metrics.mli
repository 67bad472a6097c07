(** Process-wide metrics for the real engines (the paper's Tools activity,
    Sec 4.10.6, applied to our own code): counters, gauges and
    histograms, collected into a registry with deterministic snapshots
    and two renderings (JSON and a table).

    The tracing layer ({!Hwsim.Trace}) answers "where did the *simulated*
    time go"; this module answers "how much work did the *real* engines
    do" — AMG V-cycles, Krylov iterations, BDF steps, force evaluations,
    BFS frontier sizes — and what state they ended in (residuals, dt,
    ELBO). Everything it holds is deterministic engine work and state:
    harness results travel as typed rows ([Icoe.Harness.record_row]),
    and host time is measured only by the bench executables, so a
    registry snapshot is the same whatever [ICOE_DOMAINS] says.

    Handles are cheap: engines create them once at module initialization
    ([counter]/[gauge]/[histogram] are get-or-create) and the hot-path
    operations ([inc]/[set]/[observe]) are a float store. *)

type registry
(** A set of named metrics. Callers that pass no [?registry] use the
    process-wide one the engines record into. *)

type counter
(** Monotonically increasing value (events, iterations, work items). *)

type gauge
(** A value that goes up and down (last residual, current dt). *)

type histogram
(** A distribution with count/sum/min/max, plus a bounded window of
    recent observations from which p50/p90/p99 are derived via
    {!Icoe_util.Stats.percentile_sorted}. *)

val create : unit -> registry
(** A fresh registry (independent of the process-wide one). *)

(** {1 Metric creation (get-or-create)}

    [labels] distinguish members of a metric family (e.g.
    [("method", "cg")]); they are sorted by key at registration so label
    order never matters. Registering the same name+labels twice returns
    the same handle. Registering an existing name+labels as a different
    metric type raises [Invalid_argument]. *)

val counter :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> counter

val gauge :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> gauge

val histogram :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> histogram

(** {1 Hot-path operations}

    The registry is not thread-safe: every operation below (and metric
    creation) raises [Invalid_argument] when called from inside an
    {!Icoe_par.Pool} parallel job (see [Pool.in_parallel_job]) — record
    inside the chunk into chunk-local state and flush after the pooled
    call returns. *)

val inc : ?by:float -> counter -> unit
(** Add [by] (default 1.0). Negative [by] raises [Invalid_argument]. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit

(** {1 Reading back} *)

val counter_value : counter -> float
val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [0, 1], over the retained observation
    window (the most recent {!window_capacity} observations); 0.0 for an
    empty histogram. *)

val window_capacity : int
(** Number of recent observations a histogram retains for quantiles. *)

val value : ?registry:registry -> ?labels:(string * string) list ->
  string -> float option
(** Current value of a counter or gauge by name+labels, [None] if absent
    (does not create). Histograms return their sum. *)

(** {1 Snapshot and rendering} *)

type histogram_summary = {
  count : int;
  sum : float;
  hmin : float;  (** 0.0 when empty *)
  hmax : float;  (** 0.0 when empty *)
  p50 : float;
  p90 : float;
  p99 : float;
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of histogram_summary

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  value : value;
}

val snapshot : ?registry:registry -> unit -> sample list
(** Deterministic: sorted by name, then by rendered labels. Identical
    registry states produce identical snapshots regardless of
    registration or update order. *)

val diff : before:sample list -> after:sample list -> sample list
(** The samples that changed between two {!snapshot}s, keyed by
    name+labels. Counter values and histogram count/sum become deltas;
    gauges keep their [after] value. Unchanged samples (and counters/
    histograms that first appear at zero) are dropped. Order follows
    [after], so the result is deterministically sorted. *)

val moved : sample -> bool
(** The sample differs from a freshly registered or {!reset} one: a
    nonzero counter or gauge, or a histogram with observations. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every counter/gauge and empty every histogram. Handles held by
    engines stay registered and valid. *)

val to_json : ?registry:registry -> unit -> string
(** JSON document [{"metrics": [...]}] with one object per sample
    (counters/gauges: ["value"]; histograms: count/sum/min/max/p50/p90/
    p99), one sample per line. Rendered by {!Icoe_util.Json.to_string},
    so non-finite floats are [null] and the output is always valid
    JSON. *)

val render_table : ?registry:registry -> ?title:string -> unit ->
  Icoe_util.Table.t
(** The {!moved} samples of a snapshot rendered as an {!Icoe_util.Table}
    (metric, labels, type, value) for the CLI report: after a {!reset},
    exactly the metrics the run since then touched. {!to_json} keeps
    the full snapshot. *)

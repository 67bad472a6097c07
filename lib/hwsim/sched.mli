(** Event-driven stream/queue scheduler: comm/compute overlap.

    The paper's biggest single-node wins come from hiding data movement
    behind compute — GPUDirect transfers, ddcMD's overlapped force/halo
    pipeline, collectives under backprop. This module lets engines model
    that: enqueue work items (durations the engine priced with
    {!Roofline} or {!Link}) on named streams with explicit dependencies,
    then {!run}
    advances simulated time by the dependency DAG's critical path
    instead of the serial sum.

    A stream is an in-order queue (a CUDA stream, a NIC, a core set):
    items on one stream execute in enqueue order, items on different
    streams overlap once their [deps] have finished. The serial sum of a
    schedule equals what the engine would have charged without the
    scheduler.

    Charging: when a {!Trace.t} is bound, {!run} places one leaf span
    per item at its scheduled simulated time ({!Trace.scheduled_span}),
    attributes per-phase busy seconds to the clock breakdown, and
    advances the clock total once, by the makespan — so rollups and
    Chrome export keep working unchanged, and
    the clock's phase sums minus its total is exactly the hidden time.

    Fallback: with overlap disabled ([ICOE_OVERLAP=0], or
    [~overlap:false]), {!run} charges every item back-to-back through
    the same path as {!Trace.charge} — bit-identical serialized
    charging, makespan = serial sum, so every harness can assert
    overlapped <= serial. *)

type t
type item

val overlap_enabled : unit -> bool
(** [false] when the [ICOE_OVERLAP] environment variable was ["0"],
    ["off"] or ["false"] at first use; [true] otherwise. *)

val create : ?overlap:bool -> ?trace:Trace.t -> unit -> t
(** A fresh scheduler. [overlap] defaults to {!overlap_enabled};
    [trace], when given, receives spans and the clock advance at
    {!run}. *)

val overlap : t -> bool

(** {1 Enqueueing}

    Items may only depend on items created earlier (on any stream), so
    every schedule is a DAG by construction. Enqueueing after {!run}
    raises [Invalid_argument]; so do negative or non-finite durations. *)

val work :
  t -> stream:string -> ?deps:item list -> ?device:string ->
  phase:string -> float -> item
(** Charge of a precomputed duration (seconds) on a stream. The span's
    device defaults to the stream name. *)

val duration : item -> float
val stream_of : item -> string
val deps_of : item -> item list

(** {1 Running} *)

val run : t -> float
(** Compute the schedule, charge the bound trace (if any), and return
    the makespan: the DAG critical path with overlap on, the serial sum
    with overlap off. Idempotent — subsequent calls return the memoized
    makespan without charging again. *)

val serial_sum : t -> float
(** Sum of all item durations — what serialized charging would cost.
    Always [>= makespan] (equal with overlap off). *)

val overlap_efficiency : t -> float
(** [makespan /. serial_sum], in (0, 1]: 1.0 means no overlap (or an
    empty schedule); smaller means more time was hidden. Requires
    {!run}. *)

val stream_busy : t -> (string * float) list
(** Per-stream busy seconds (sum of durations), first-seen order.
    Conserved across scheduling modes. *)

val items : t -> item list
(** All items in enqueue order. *)

val finish_time : item -> float

(** {1 Profiling} *)

val dag : t -> Icoe_obs.Prof.item array
(** The scheduled DAG in {!Icoe_obs.Prof} form: one entry per item in
    enqueue order, deps as indices of earlier items. Valid before or
    after {!run} (durations are fixed at enqueue time). *)

val profile : t -> Icoe_obs.Prof.analysis
(** [Icoe_obs.Prof.analyze ~overlap:(overlap t) (dag t)] — critical
    path, per-item slack, per-phase/per-stream blame and what-if
    sensitivity for this schedule. *)

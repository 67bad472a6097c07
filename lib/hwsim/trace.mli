(** Structured, span-based tracing of the simulated machine (Sec 4.10.6).

    The Tools activity made the machine observable — user-readable
    memory-traffic counters, Performance Co-Pilot dashboards — because
    "understanding the bandwidth that an application uses is crucial to
    performance tuning". This module is the same idea for the simulated
    system: a trace is a tree of named spans (experiment, phase, kernel,
    transfer), each carrying simulated start/end time, the device it ran
    on, and optional kernel attributes (flops, bytes, roofline bound).
    Charges tick the underlying {!Clock}, so per-phase span totals agree
    with the clock breakdown the harnesses already print.

    On top of the raw tree sit an aggregation pass (per-device and
    per-phase rollups, top-N spans, rendered with {!Icoe_util.Table}) and
    a Chrome trace-event JSON exporter, so any run can be opened in
    [chrome://tracing] or Perfetto. *)

type span = {
  name : string;
  device : string option;  (** device the span ran on, if any *)
  start : float;  (** simulated seconds at open *)
  mutable stop : float;  (** simulated seconds at close *)
  mutable flops : float;  (** kernel attribute: FP work inside the span *)
  mutable bytes : float;  (** kernel attribute: DRAM traffic inside the span *)
  mutable bound : Roofline.bound option;  (** which roof bound the kernel *)
  mutable bw_util : float option;  (** {!Counters} utilization annotation *)
  mutable children : span list;  (** newest first *)
}

type t
(** A tracer bound to a {!Clock.t}. Span timestamps are read from the
    clock, and charges advance it. *)

val create : ?root:string -> Clock.t -> t
(** [create clock] makes a tracer whose root span (default name
    ["experiment"]) opens at the clock's current total. *)

val clock : t -> Clock.t
val root : t -> span

val now : t -> float
(** Current simulated time ([Clock.total]). *)

val push : t -> ?device:string -> string -> unit
(** Open a child span under the innermost open span. *)

val pop : t -> unit
(** Close the innermost open span. Raises [Invalid_argument] if only the
    root is open. *)

val with_span : t -> ?device:string -> string -> (unit -> 'a) -> 'a
(** Scoped [push]/[pop]; the span is closed even on exceptions. *)

val charge : t -> ?device:string -> phase:string -> float -> unit
(** Trace-emitting variant of {!Clock.tick}: charge nonnegative seconds
    to [phase] on the clock AND record a leaf span of that duration under
    the innermost open span. *)

val scheduled_span :
  t ->
  ?device:string ->
  ?flops:float ->
  ?bytes:float ->
  ?bound:Roofline.bound ->
  phase:string ->
  start:float ->
  float ->
  unit
(** [scheduled_span t ~phase ~start dur] records a leaf span pinned at
    absolute simulated time [start .. start +. dur] under the innermost
    open span, charging [dur] busy seconds to the clock's [phase]
    breakdown WITHOUT advancing the clock
    total. {!Sched} places overlapped work items with this and then
    {!advance}s the clock once by the schedule's critical path, so the
    per-phase rollups show busy time while the total shows makespan. *)

val advance : t -> float -> unit
(** Advance the bound clock's total by nonnegative seconds without
    charging any phase ({!Clock.advance}). *)

val charge_kernel :
  t ->
  ?eff:Roofline.efficiency ->
  ?lanes_used:int ->
  ?phase:string ->
  Device.t ->
  Kernel.t ->
  float
(** Trace-emitting variant of {!Roofline.time}: price the kernel on the
    device, [charge] the result to [phase] (default: the kernel's name),
    and record flops/bytes/binding attributes on the span. Returns the
    priced seconds. *)

val annotate_counters : t -> Counters.t -> unit
(** Attach a {!Counters} reading to the innermost open span: records the
    achieved fraction of the device's sustainable bandwidth, so
    bandwidth-boundedness is kept in context. *)

val span_count : t -> int
(** Number of spans recorded, excluding the root. *)

val total : t -> float
(** Simulated seconds covered by the trace (root open to latest close). *)

(** {1 Aggregation} *)

type rollup = {
  key : string;  (** device name or phase name *)
  seconds : float;  (** summed leaf-span duration *)
  spans : int;
  r_flops : float;
  r_bytes : float;
}

val by_phase : t -> rollup list
(** Leaf spans grouped by name, first-seen order. Sums match the clock's
    per-phase breakdown (within float tolerance) when every charge went
    through the tracer. *)

val by_device : t -> rollup list
(** Leaf spans grouped by device name (["-"] when unattributed). *)

val top_spans : ?n:int -> t -> span list
(** The [n] (default 5) longest non-root spans, longest first. *)

val device_table : ?title:string -> t -> Icoe_util.Table.t
(** Per-device rollup: time, share, achieved GF/s and GB/s, and — for
    devices seen by {!charge_kernel} — the achieved fraction of peak. *)

val phase_table : ?title:string -> t -> Icoe_util.Table.t
(** Per-phase rollup: time, share, span count. *)

val span_table : ?title:string -> ?n:int -> t -> Icoe_util.Table.t
(** Top-N spans with device, duration and roofline bound. *)

(** {1 Chrome trace-event export} *)

val chrome_json_of_many : (string * t) list -> string
(** Merge named traces into one Chrome trace-event JSON document (one
    process per trace, one thread per device), loadable in
    [chrome://tracing] / Perfetto. Timestamps are simulated microseconds. *)

val to_chrome_json : t -> string
(** [chrome_json_of_many] for a single trace. *)

val pp : Format.formatter -> t -> unit
(** Indented span tree, for debugging. *)

(** Unified structured event log (JSONL flight recorder).

    One flat schema over every observability source: each event is a
    single JSON object on its own line,

    {v
    {"seq":N,"t_s":X,"kind":"...","source":"...",...fields}
    v}

    where [seq] is a monotone per-process counter, [t_s] the simulated
    timestamp when the emitter has one, [kind] the event class and
    [source] the emitting subsystem. Kinds used by the repo:

    - ["span"]   — {!Hwsim.Trace} charge/kernel/scheduled leaves
    - ["metric"] — per-run {!Metrics} snapshot deltas (from [Harness])
    - ["fault"]  — [Icoe_fault] injections and checkpoint/recovery
    - ["job"]    — [Icoe_svc.Cluster] submit/dispatch/finish lifecycle
    - ["queue"]  — [Icoe_svc.Cluster] queue-depth / free-node samples
    - ["error"]  — a harness that raised (from [Harness.run_isolated])

    The recorder is off by default: {!emit} is a cheap no-op until a
    sink is installed explicitly or via [ICOE_EVENTS=path] (checked
    lazily on first use; the file sink is closed by an [at_exit] hook).
    Events emitted from inside an {!Icoe_par.Pool} parallel job are
    silently dropped rather than racing on the shared channel. *)

type field =
  | S of string  (** JSON string (escaped) *)
  | F of float  (** JSON number; non-finite values emit [null] *)
  | I of int
  | B of bool

val enabled : unit -> bool
(** A sink is installed and we are not inside a parallel job. Check
    this before building an expensive field list. *)

val emit :
  ?t_s:float -> kind:string -> source:string -> (string * field) list -> unit
(** Append one event line. No-op when {!enabled} is false. Field keys
    should not collide with the built-in [seq]/[t_s]/[kind]/[source]. *)

val to_file : string -> unit
(** Install a file sink (replacing any current sink). The caller — or
    the [ICOE_EVENTS] [at_exit] hook — must {!close} it to flush. *)

val set_sink : (string -> unit) -> unit
(** Install a custom line sink (replacing any current sink). *)

val memory : unit -> unit -> string list
(** Install an in-memory sink and return a function yielding the lines
    emitted so far, in order. For tests. *)

val close : unit -> unit
(** Close and uninstall the current sink, if any. *)

val reset_seq : unit -> unit
(** Reset the [seq] counter to 0. For deterministic test output. *)

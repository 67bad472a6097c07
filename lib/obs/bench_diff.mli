(** Differential regression gate over two [BENCH_<id>.json] files.

    A BENCH file carries [rows] — generic measurements, each naming its
    own section, class and direction — and [checks] — named booleans.
    The gate flattens both files' rows with one generic reader, judges
    each relative delta against a threshold, and renders a verdict
    table. Simulated-time rows (deterministic model seconds) regress
    hard past a 5% threshold; wall-clock rows (host ns timings) only
    warn, past 50%. Rows present on only
    one side are reported as added/removed, never failed — older
    baselines legitimately predate newer rows. Checks are stricter: a
    check that is false in the current file, or that the baseline
    carried and the current file lacks, is a regression. Any other
    member is ignored (older files carry a [registry] block). *)

type klass = Sim  (** deterministic simulated/model value *)
           | Wall  (** host wall-clock measurement *)

type measurement = {
  section : string;  (** e.g. ["harness"], ["blame"] *)
  name : string;  (** row id within the section, e.g. ["sw4/interior"] *)
  value : float;
  unit : string;  (** e.g. ["s"], ["ns"], ["jobs/s"] *)
  klass : klass;
  higher_better : bool;  (** false: a rise is the worse direction *)
}
(** One BENCH row. *)

val document :
  id:string -> icoe_domains:int -> measurement list -> (string * bool) list ->
  Icoe_util.Json.t
(** A BENCH document: [{id, icoe_domains, rows, checks}], each
    row [{section, name, value, unit, class: "sim"|"wall",
    higher_better}] (a repeated section/name keeps its first row), each
    check [{name, ok}] (a repeated name holds only if every occurrence
    does). *)

val flatten : Icoe_util.Json.t -> measurement list
(** The [rows] of a BENCH document, in order. A row lacking a string
    section or name, or a numeric value, is skipped; a class other than
    ["wall"] reads as [Sim]. Never raises. *)

type verdict = Ok | Improved | Warn | Regression | Added | Removed

type row = {
  section : string;  (** a measurement's section, or ["check"] *)
  name : string;
  klass : klass;
  base : float option;  (** [None]: missing in the baseline *)
  cur : float option;  (** [None]: missing in the current file *)
  delta : float;
      (** signed relative delta in the worse direction (positive =
          worse); 0 when one side is missing or the base is 0 *)
  verdict : verdict;
}

type result = {
  rows : row list;
  regressions : int;
  warnings : int;
  improved : int;
}

val diff : base:Icoe_util.Json.t -> cur:Icoe_util.Json.t -> result
(** Compare two parsed BENCH documents: measurement rows first
    (baseline order, then current-only rows), then checks (1 = holds,
    0 = failed; a check without a string name is skipped, one whose
    [ok] is not [true] failed). Never raises on malformed documents. *)

val exit_code : result -> int
(** 0 when [regressions = 0], 3 otherwise. *)

val run_files :
  ?all:bool ->
  base:string ->
  cur:string ->
  unit ->
  result * string
(** Read, parse and diff two files; returns the result and the rendered
    report (table + summary). Raises [Failure] on unreadable or invalid
    JSON. *)

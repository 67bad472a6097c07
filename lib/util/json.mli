(** A minimal strict JSON reader and writer (no external deps).

    Exists so the repo can write its machine-readable artifacts and read
    them back: the bench writes [BENCH_<id>.json] through {!to_string},
    {!Icoe_obs.Bench_diff} parses it for the regression gate, and tests
    validate JSONL event-log lines. The full grammar is supported; all
    numbers land in [float] (which is how the writers emitted them).
    {!escape} is the one JSON string escaper of the repo: the event log,
    the Chrome trace exports and the metrics snapshot use it too. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an
    error, and so is a raw control character (below 0x20) inside a
    string, as RFC 8259 requires. *)

val parse_exn : string -> t
(** Like {!parse}; raises {!Parse_error}. *)

(** {1 Accessors} — [None] on a type mismatch or missing key. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_bool : t -> bool option
val float_member : string -> t -> float option
val string_member : string -> t -> string option
val list_member : string -> t -> t list option
val bool_member : string -> t -> bool option

(** {1 Writer} *)

val escape : string -> string
(** The body of a JSON string literal for the given bytes: quote,
    backslash, newline, tab and carriage return get their two-character
    escapes, every other byte below 0x20 becomes a [\u00XX] escape, and
    everything else (UTF-8 included) passes through. *)

val number : float -> string
(** [%.17g] (so every float reads back bit-identically), or [null] for a
    non-finite value. *)

val to_string : t -> string
(** Render a document, newline-terminated, numbers through {!number}.
    An array of scalars, or an object holding no array, stays on one
    line; other containers put one element per line, indented. *)

(** A minimal strict JSON reader and writer (no external deps).

    Exists so the repo can write its machine-readable artifacts and read
    them back. {!to_string} is the repo's one JSON writer: the bench's
    [BENCH_<id>.json], the Chrome trace exports, the metrics snapshot
    and every event-log line are built as a {!t} and rendered by it.
    {!Icoe_obs.Bench_diff} parses BENCH files for the regression gate,
    and tests parse the artifacts back. The full grammar is supported;
    all numbers land in [float] (which is how the writer emitted them). *)

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

val to_string : t -> string
(** Render a document, newline-terminated. Numbers print as [%.17g] (so
    every float reads back bit-identically), or [null] when non-finite.
    In a string, quote, backslash, newline, tab and carriage return get
    their two-character escapes, every other byte below 0x20 becomes a
    [\u00XX] escape, and everything else (UTF-8 included) passes
    through. An array of scalars, or an object holding no array, stays
    on one line with [", "] and [": "] separators; other containers put
    one element per line, indented. *)

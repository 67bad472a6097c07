(** Plain-text table rendering for experiment reports.

    Benches print paper-style rows through this; keeping formatting in one
    place makes every harness's output uniform. *)

type align = Left | Right

type t
(** A mutable table under construction. *)

val create : ?aligns:align array -> title:string -> string list -> t
(** [create ~title header] starts a table. [aligns] must match the header
    width (defaults to all right-aligned). *)

val add_row : t -> string list -> unit
(** Append a row; its arity must match the header. *)

val sep : string
(** The cell separator {!addf} splits on: the ASCII unit separator
    ["\x1f"], which cannot occur in printable cell values. (Splitting on
    ['|'] would shift every column of a row whose formatted cell itself
    contains a pipe, tripping the {!add_row} arity assert.) *)

val addf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Format a {!sep}-separated row, e.g.
    [addf t "%s\x1f%d" name n]. Cell values may freely contain ['|']. *)

val fcell : ?prec:int -> float -> string
(** Fixed-precision numeric cell (default 3 decimals). *)

val render : t -> string
(** The table as GitHub-style markdown with a title line. *)

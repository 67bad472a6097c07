(** A miniature loop IR for the ParaDyn compiler study (Sec 4.8):
    sequences of elementwise loops over same-length arrays — the shape of
    ParaDyn's "many small loops" that defeat GPU offload through launch
    overhead and intermediate-array traffic. *)

type expr =
  | Load of string  (** global array element at the loop index *)
  | Scalar of string  (** loop-private scalar (register) *)
  | Const of float
  | Binop of [ `Add | `Sub | `Mul | `Div ] * expr * expr

type stmt =
  | Store of string * expr  (** global array write at the loop index *)
  | Def of string * expr  (** loop-private scalar definition *)

type loop = { body : stmt list }

type program = {
  loops : loop list;
  inputs : string list;
  outputs : string list;  (** arrays whose final values matter *)
}

val expr_reads : expr -> string list * string list
(** (array loads, scalar reads). *)

val stmt_writes : stmt -> string option

val arrays : program -> string list
(** Every array name appearing in the program. *)

val paradyn_kernel : program
(** The representative kernel behind Fig 6: a chain of elementwise loops
    with live intermediates (also outputs) and two dead ones. *)

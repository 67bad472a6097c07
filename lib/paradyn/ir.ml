(** A miniature loop IR for the ParaDyn compiler study (Sec 4.8).

    Programs are sequences of elementwise loops over arrays of a common
    length — exactly the shape of ParaDyn's "many small loops" that defeat
    GPU offload through launch overhead and intermediate-array traffic.
    The compiler passes in [Passes] transform programs; the interpreter in
    [Interp] runs them for real while counting global loads and stores,
    which is what NVProf measured for Fig 6. *)

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
  inputs : string list;  (** arrays provided by the caller *)
  outputs : string list;  (** arrays whose final values matter *)
}

let rec expr_reads = function
  | Load a -> ([ a ], [])
  | Scalar s -> ([], [ s ])
  | Const _ -> ([], [])
  | Binop (_, a, b) ->
      let la, sa = expr_reads a and lb, sb = expr_reads b in
      (la @ lb, sa @ sb)

(* arrays written / read by a statement *)
let stmt_writes = function Store (a, _) -> Some a | Def _ -> None

(** All array names appearing in a program. *)
let arrays p =
  let acc = ref [] in
  let add a = if not (List.mem a !acc) then acc := a :: !acc in
  List.iter add p.inputs;
  List.iter
    (fun l ->
      List.iter
        (fun st ->
          (match stmt_writes st with Some a -> add a | None -> ());
          let e = match st with Store (_, e) | Def (_, e) -> e in
          List.iter add (fst (expr_reads e)))
        l.body)
    p.loops;
  List.rev !acc

(** The representative ParaDyn kernel: a chain of small elementwise loops
    feeding one result through intermediate arrays. t1..t3 are also
    consumed by later phases of the timestep (program outputs), while t4
    and t5 are computed but never used — the dead stores the XL-Fortran
    private-clause dataflow work exposed. *)
let paradyn_kernel =
  {
    inputs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ];
    outputs = [ "out"; "t1"; "t2"; "t3" ];
    loops =
      [
        { body = [ Store ("t1", Binop (`Mul, Binop (`Add, Load "a", Load "b"), Load "c")) ] };
        { body = [ Store ("t2", Binop (`Mul, Binop (`Add, Load "t1", Load "d"), Load "e")) ] };
        { body = [ Store ("t3", Binop (`Mul, Binop (`Add, Load "t2", Load "f"), Load "a")) ] };
        (* dead intermediates: stored, never read again *)
        { body = [ Store ("t4", Binop (`Add, Load "t2", Load "g")) ] };
        { body = [ Store ("out", Binop (`Mul, Binop (`Add, Load "t3", Load "t1"), Load "h")) ] };
        { body = [ Store ("t5", Binop (`Add, Load "t3", Load "b")) ] };
      ];
  }

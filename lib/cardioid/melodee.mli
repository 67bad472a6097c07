(** Melodee: Cardioid's reaction-kernel DSL.

    The paper's pipeline (Sec 4.1): take the ionic-model equations as an
    expression tree, (1) replace expensive math functions with run-time
    rational polynomials, (2) optionally instantiate run-time coefficients
    as compile-time constants, and (3) "JIT" the result — here, compile
    the tree to an OCaml closure. The op-count report drives the device
    pricing of each variant. *)

type expr =
  | Const of float
  | Var of int  (** index into the state/input vector *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr
  | Exp of expr
  | Log of expr
  | Ratpoly of float array * float array * expr
      (** p(x)/q(x) with coefficient arrays, lowest degree first *)

val eval : float array -> expr -> float

val op_count : expr -> int * int
(** (cheap flops, expensive math calls). Rational polynomials count as
    cheap flops only — that is the whole point. *)

val constant_fold : expr -> expr
(** Evaluate constant subtrees at "compile time" (the paper's run-time
    coefficients -> compile-time constants lesson as a pass). *)

val rational_fit :
  lo:float -> hi:float -> np:int -> nq:int -> (float -> float)
  -> float array * float array
(** Least-squares rational fit p/q ~ f on [lo, hi], q(0) = 1. *)

val compile : expr -> float array -> float
(** Compile the tree to a closure — the NVRTC analog. *)

val eval_cost : ?expensive_flops:float -> expr -> float
(** Priced flops of one evaluation; an expensive call defaults to 50
    flops (a double-precision exp on GPUs). *)

val load_count : ?folded:bool -> expr -> int
(** Memory loads per evaluation; [folded] drops rational-polynomial
    coefficient loads (compile-time constants). *)

val fit_function :
  lo:float -> hi:float -> ?np:int -> ?nq:int -> (float -> float) -> expr -> expr
(** Fit an arbitrary bounded function and return the replacement applied
    to an argument expression — the DSL's core move (Cardioid fits whole
    rate expressions, which are bounded and smooth). *)

(** {2 Zero-alloc program form}

    {!compile} returns a closure tree whose evaluation boxes a float per
    node per call — fine for single-cell traces, fatal for a per-cell
    hot loop. {!compile_program} lowers the same tree to a postfix
    instruction array executed over a caller-provided stack buffer: the
    same floating-point operations in the same order (bit-identical
    results), with zero allocation per evaluation. *)

type program = {
  ops : int array;
  opargs : int array;
  consts : float array;
  ratp : float array array;
  ratq : float array array;
  depth : int;
}

val compile_program : expr -> program

val program_depth : program -> int
(** Maximum operand-stack depth one evaluation needs. *)

val exec_program_into :
  program -> env:Icoe_util.Fbuf.t -> env_off:int ->
  stack:Icoe_util.Fbuf.t -> stack_off:int ->
  out:Icoe_util.Fbuf.t -> out_off:int -> unit
(** Evaluate over flat buffers with base offsets ([Var i] reads
    [env.{env_off + i}]; intermediates live in [stack.{stack_off ...}],
    at least {!program_depth} slots) and write the result to
    [out.{out_off}]. Bit-identical to evaluating the {!compile} closure
    of the same expression. No boxed-float return, so a steady-state
    caller allocates nothing at all. *)

(** Melodee: Cardioid's reaction-kernel DSL.

    The paper's pipeline (Sec 4.1): take the ionic-model equations as an
    expression tree, (1) automatically find and replace expensive math
    functions with run-time rational polynomials, (2) optionally instantiate
    run-time coefficients as compile-time constants (constant folding), and
    (3) "JIT" the result — here, compile the tree to an OCaml closure. The
    op-count report drives the device pricing of each variant. *)

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
      (** p(x)/q(x) with coefficient arrays (lowest degree first) *)

let rec eval env = function
  | Const c -> c
  | Var i -> env.(i)
  | Add (a, b) -> eval env a +. eval env b
  | Sub (a, b) -> eval env a -. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Div (a, b) -> eval env a /. eval env b
  | Neg a -> -.(eval env a)
  | Exp a -> exp (eval env a)
  | Log a -> log (eval env a)
  | Ratpoly (p, q, a) ->
      let x = eval env a in
      let horner c =
        let acc = ref 0.0 in
        for i = Array.length c - 1 downto 0 do
          acc := (!acc *. x) +. c.(i)
        done;
        !acc
      in
      horner p /. horner q

(** (cheap flops, expensive-function calls) in one evaluation. A rational
    polynomial counts as cheap flops only — that is the whole point. *)
let rec op_count = function
  | Const _ | Var _ -> (0, 0)
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      let ca, ea = op_count a and cb, eb = op_count b in
      (ca + cb + 1, ea + eb)
  | Neg a ->
      let c, e = op_count a in
      (c + 1, e)
  | Exp a | Log a ->
      let c, e = op_count a in
      (c, e + 1)
  | Ratpoly (p, q, a) ->
      let c, e = op_count a in
      (c + (2 * (Array.length p + Array.length q)) + 1, e)

(** Constant folding: evaluate every constant subtree at "compile time".
    This is the paper's "changing run-time polynomial coefficients into
    compile-time constants" lesson expressed as a pass. *)
let rec constant_fold e =
  let binop mk f a b =
    match (constant_fold a, constant_fold b) with
    | Const x, Const y -> Const (f x y)
    | a', b' -> mk a' b'
  in
  match e with
  | Const _ | Var _ -> e
  | Add (a, b) -> binop (fun a b -> Add (a, b)) ( +. ) a b
  | Sub (a, b) -> binop (fun a b -> Sub (a, b)) ( -. ) a b
  | Mul (a, b) -> (
      match binop (fun a b -> Mul (a, b)) ( *. ) a b with
      | Mul (Const 1.0, x) | Mul (x, Const 1.0) -> x
      | Mul (Const 0.0, _) | Mul (_, Const 0.0) -> Const 0.0
      | x -> x)
  | Div (a, b) -> binop (fun a b -> Div (a, b)) ( /. ) a b
  | Neg a -> ( match constant_fold a with Const x -> Const (-.x) | a' -> Neg a')
  | Exp a -> ( match constant_fold a with Const x -> Const (exp x) | a' -> Exp a')
  | Log a -> ( match constant_fold a with Const x -> Const (log x) | a' -> Log a')
  | Ratpoly (p, q, a) -> (
      match constant_fold a with
      | Const x -> Const (eval [||] (Ratpoly (p, q, Const x)))
      | a' -> Ratpoly (p, q, a'))

(** Least-squares rational fit p(x)/q(x) ~ f(x) on [lo, hi], deg p = np,
    deg q = nq with q(0) = 1. Linearized: minimize sum (f q - p)^2 over
    Chebyshev sample points. *)
let rational_fit ~lo ~hi ~np ~nq f =
  let ns = 8 * (np + nq + 2) in
  let xs =
    Array.init ns (fun k ->
        let t = cos (Float.pi *. (float_of_int k +. 0.5) /. float_of_int ns) in
        (0.5 *. (lo +. hi)) +. (0.5 *. (hi -. lo) *. t))
  in
  let nunk = np + 1 + nq in
  (* unknowns: p_0..p_np, q_1..q_nq *)
  let a = Linalg.Dense.create ns nunk in
  let b = Array.make ns 0.0 in
  Array.iteri
    (fun r x ->
      let fx = f x in
      for i = 0 to np do
        Linalg.Dense.set a r i (x ** float_of_int i)
      done;
      for j = 1 to nq do
        Linalg.Dense.set a r (np + j) (-.fx *. (x ** float_of_int j))
      done;
      b.(r) <- fx)
    xs;
  (* normal equations A^T A c = A^T b *)
  let at = Linalg.Dense.transpose a in
  let ata = Linalg.Dense.matmul at a in
  (* regularize lightly for stability *)
  for i = 0 to nunk - 1 do
    Linalg.Dense.update ata i i (fun v -> v +. 1e-12)
  done;
  let atb = Linalg.Dense.matvec at b in
  let c = Linalg.Dense.solve ata atb in
  let p = Array.sub c 0 (np + 1) in
  let q = Array.append [| 1.0 |] (Array.sub c (np + 1) nq) in
  (p, q)

(** "JIT": compile the tree to a closure. OCaml's compiler does the rest;
    the analog to NVRTC is that the returned closure has the structure of
    the transformed tree baked in. *)
let rec compile = function
  | Const c -> fun _ -> c
  | Var i -> fun env -> env.(i)
  | Add (a, b) ->
      let fa = compile a and fb = compile b in
      fun env -> fa env +. fb env
  | Sub (a, b) ->
      let fa = compile a and fb = compile b in
      fun env -> fa env -. fb env
  | Mul (a, b) ->
      let fa = compile a and fb = compile b in
      fun env -> fa env *. fb env
  | Div (a, b) ->
      let fa = compile a and fb = compile b in
      fun env -> fa env /. fb env
  | Neg a ->
      let fa = compile a in
      fun env -> -.(fa env)
  | Exp a ->
      let fa = compile a in
      fun env -> exp (fa env)
  | Log a ->
      let fa = compile a in
      fun env -> log (fa env)
  | Ratpoly (p, q, a) ->
      let fa = compile a in
      fun env ->
        let x = fa env in
        let horner c =
          let acc = ref 0.0 in
          for i = Array.length c - 1 downto 0 do
            acc := (!acc *. x) +. c.(i)
          done;
          !acc
        in
        horner p /. horner q

(** Price one evaluation of the expression on a device: cheap flops cost 1
    flop each; an expensive call costs [expensive_flops] (double-precision
    exp/log are software routines: ~50 flops on GPUs, ~100 scalar on CPUs). *)
let eval_cost ?(expensive_flops = 50.0) e =
  let cheap, expensive = op_count e in
  float_of_int cheap +. (float_of_int expensive *. expensive_flops)

(** Memory loads per evaluation: every Var is a load; a Ratpoly's
    coefficients are loads unless [folded] — the paper's "compile-time
    constants" turn run-time coefficient arrays into immediates. *)
let rec load_count ?(folded = false) = function
  | Const _ -> 0
  | Var _ -> 1
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      load_count ~folded a + load_count ~folded b
  | Neg a | Exp a | Log a -> load_count ~folded a
  | Ratpoly (p, q, a) ->
      (if folded then 0 else Array.length p + Array.length q)
      + load_count ~folded a

(** Fit an arbitrary bounded function of one variable with a rational
    polynomial and return the replacement expression applied to [arg].
    This is the DSL's core move: Cardioid fits whole rate expressions
    (sigmoids, bell-shaped time constants), which are bounded and smooth —
    not bare exp over its wild range. *)
let fit_function ~lo ~hi ?(np = 6) ?(nq = 6) f arg =
  let p, q = rational_fit ~lo ~hi ~np ~nq f in
  Ratpoly (p, q, arg)

(* --- zero-alloc program compilation --------------------------------- *)

(* Opcodes for the postfix program form. *)
let op_const = 0
let op_var = 1
let op_add = 2
let op_sub = 3
let op_mul = 4
let op_div = 5
let op_neg = 6
let op_exp = 7
let op_log = 8
let op_ratpoly = 9

type program = {
  ops : int array;  (** opcode per instruction *)
  opargs : int array;  (** operand per instruction (const/var/ratpoly index) *)
  consts : float array;
  ratp : float array array;  (** numerator coefficients per ratpoly *)
  ratq : float array array;  (** denominator coefficients per ratpoly *)
  depth : int;  (** maximum operand-stack depth *)
}

let program_depth p = p.depth

(** Compile the tree to a postfix program evaluated over a preallocated
    stack buffer. The instruction order is a postorder walk — operand
    [a] before operand [b] before the operation — which performs exactly
    the floating-point operations of the {!compile} closure tree in the
    same order, so the two evaluation strategies are bit-identical. The
    payoff is allocation: the closure tree boxes a float per node per
    call, the program form writes every intermediate into the caller's
    stack buffer and allocates nothing. *)
let compile_program e =
  let ops = ref [] and opargs = ref [] in
  let consts = ref [] and nconsts = ref 0 in
  let ratp = ref [] and ratq = ref [] and nrat = ref 0 in
  let emit op arg =
    ops := op :: !ops;
    opargs := arg :: !opargs
  in
  let intern_const c =
    let i = !nconsts in
    consts := c :: !consts;
    incr nconsts;
    i
  in
  let rec go = function
    | Const c ->
        emit op_const (intern_const c);
        1
    | Var i ->
        emit op_var i;
        1
    | Add (a, b) -> binop op_add a b
    | Sub (a, b) -> binop op_sub a b
    | Mul (a, b) -> binop op_mul a b
    | Div (a, b) -> binop op_div a b
    | Neg a -> unop op_neg a
    | Exp a -> unop op_exp a
    | Log a -> unop op_log a
    | Ratpoly (p, q, a) ->
        let d = go a in
        let i = !nrat in
        ratp := p :: !ratp;
        ratq := q :: !ratq;
        incr nrat;
        emit op_ratpoly i;
        d
  and binop op a b =
    let da = go a in
    let db = go b in
    emit op 0;
    max da (db + 1)
  and unop op a =
    let d = go a in
    emit op 0;
    d
  in
  let depth = go e in
  {
    ops = Array.of_list (List.rev !ops);
    opargs = Array.of_list (List.rev !opargs);
    consts = Array.of_list (List.rev !consts);
    ratp = Array.of_list (List.rev !ratp);
    ratq = Array.of_list (List.rev !ratq);
    depth;
  }

(* The interpreter core: runs the opcode loop and leaves the result at
   [stack_off]. Returns unit so that neither entry point below pays a
   boxed-float return on the per-op work. *)
let exec_core p ~(env : Icoe_util.Fbuf.t) ~env_off
    ~(stack : Icoe_util.Fbuf.t) ~stack_off =
  let module Fbuf = Icoe_util.Fbuf in
  let ops = p.ops and opargs = p.opargs and consts = p.consts in
  let sp = ref stack_off in
  for pc = 0 to Array.length ops - 1 do
    let arg = Array.unsafe_get opargs pc in
    match Array.unsafe_get ops pc with
    | 0 (* const *) ->
        Fbuf.set stack !sp (Array.unsafe_get consts arg);
        incr sp
    | 1 (* var *) ->
        Fbuf.set stack !sp (Fbuf.get env (env_off + arg));
        incr sp
    | 6 (* neg *) -> Fbuf.set stack (!sp - 1) (-.Fbuf.get stack (!sp - 1))
    | 7 (* exp *) -> Fbuf.set stack (!sp - 1) (exp (Fbuf.get stack (!sp - 1)))
    | 8 (* log *) -> Fbuf.set stack (!sp - 1) (log (Fbuf.get stack (!sp - 1)))
    | 9 (* ratpoly *) ->
        (* Horner for p then q, written as two flat loops: a local
           [horner] closure here would be allocated (and box x) on every
           ratpoly op *)
        let x = Fbuf.get stack (!sp - 1) in
        let pc = Array.unsafe_get p.ratp arg in
        let accp = ref 0.0 in
        for i = Array.length pc - 1 downto 0 do
          accp := (!accp *. x) +. Array.unsafe_get pc i
        done;
        let qc = Array.unsafe_get p.ratq arg in
        let accq = ref 0.0 in
        for i = Array.length qc - 1 downto 0 do
          accq := (!accq *. x) +. Array.unsafe_get qc i
        done;
        Fbuf.set stack (!sp - 1) (!accp /. !accq)
    | op (* binary *) ->
        let b = Fbuf.get stack (!sp - 1) in
        let a = Fbuf.get stack (!sp - 2) in
        decr sp;
        Fbuf.set stack (!sp - 1)
          (match op with
          | 2 -> a +. b
          | 3 -> a -. b
          | 4 -> a *. b
          | _ -> a /. b)
  done

(** The result is written to [out.(out_off)] instead of returned: a
    float returned across a module boundary is boxed (no cross-module
    inlining without flambda), which at one call per cell per derivative
    is most of a reaction sweep's garbage. *)
let exec_program_into p ~env ~env_off ~stack ~stack_off
    ~(out : Icoe_util.Fbuf.t) ~out_off =
  exec_core p ~env ~env_off ~stack ~stack_off;
  Icoe_util.Fbuf.set out out_off (Icoe_util.Fbuf.get stack stack_off)

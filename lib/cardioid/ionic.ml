(** A compact exp-heavy ionic membrane model, expressed through Melodee.

    Structure follows the paper's description of Cardioid reaction kernels:
    embarrassingly parallel, compute-bound, dense with math-function calls.
    The model is Hodgkin-Huxley shaped with the minimal ingredients of a
    real action potential: an instantly-activating, h-inactivated fast
    inward current, a slowly activating outward (K-like) current, a gated
    slow leak, and a fixed anchoring leak.

    State vector layout: [ v; h; n; w ], input appended: [ istim ]. *)

let n_state = 4
let iv = 0
let ih = 1
let in_ = 2
let iw = 3
let istim_idx = 4

let v_rest = -84.0

(* membrane parameters *)
let g_fast = 12.0
let e_fast = 50.0
let g_k = 4.0
let e_k = -85.0
let g_wleak = 0.5
let e_wleak = -80.0
let g_leak = 1.0
let e_leak = -85.0

(* physiological voltage range the rate fits must cover *)
let v_range = (-95.0, 55.0)

open Melodee

(* closed-form rate functions (used both to build exact ASTs and as fit
   targets for the rational variants) *)
let sigmoid_fn ~vh ~s v = 1.0 /. (1.0 +. exp (-.(v -. vh) /. s))
let bell_fn ~tmin ~tamp ~vp ~w v =
  tmin +. (tamp *. exp (-.(((v -. vp) /. w) ** 2.0)))

let m_inf = sigmoid_fn ~vh:(-40.0) ~s:6.0
let h_inf = sigmoid_fn ~vh:(-70.0) ~s:(-7.0) (* closes on depolarization *)
let n_inf = sigmoid_fn ~vh:(-25.0) ~s:8.0
let w_inf = sigmoid_fn ~vh:(-60.0) ~s:10.0
let tau_h = bell_fn ~tmin:1.0 ~tamp:8.0 ~vp:(-75.0) ~w:20.0
let tau_n = bell_fn ~tmin:25.0 ~tamp:80.0 ~vp:(-30.0) ~w:30.0
let tau_w = bell_fn ~tmin:60.0 ~tamp:200.0 ~vp:(-60.0) ~w:40.0

(* exact Melodee subtrees for the rates *)
let sigmoid_ast ~vh ~s v =
  Div (Const 1.0, Add (Const 1.0, Exp (Neg (Div (Sub (v, Const vh), Const s)))))

let bell_ast ~tmin ~tamp ~vp ~w v =
  let z = Div (Sub (v, Const vp), Const w) in
  Add (Const tmin, Mul (Const tamp, Exp (Neg (Mul (z, z)))))

(** A reaction-kernel variant: how the rate functions are realized.
    [Libm] evaluates the exact exp-based expressions; [Rational] replaces
    each rate function with a fitted rational polynomial whose coefficients
    live in memory; [Rational_folded] additionally bakes the coefficients
    in as compile-time constants (same flops, no coefficient loads). *)
type variant = Libm | Rational | Rational_folded

let variant_name = function
  | Libm -> "libm"
  | Rational -> "rational"
  | Rational_folded -> "rational+const"

(* build the 4 derivative expressions with a rate-expression factory *)
let build_exprs ~rate =
  let v = Var iv in
  let minf = rate m_inf v in
  let hinf = rate h_inf v in
  let ninf = rate n_inf v in
  let winf = rate w_inf v in
  let tauh = rate tau_h v in
  let taun = rate tau_n v in
  let tauw = rate tau_w v in
  let i_fast =
    Mul (Mul (Mul (Const g_fast, minf), Var ih), Sub (v, Const e_fast))
  in
  let i_k = Mul (Mul (Const g_k, Var in_), Sub (v, Const e_k)) in
  let i_w = Mul (Mul (Const g_wleak, Var iw), Sub (v, Const e_wleak)) in
  let i_l = Mul (Const g_leak, Sub (v, Const e_leak)) in
  let itotal = Add (Add (i_fast, i_k), Add (i_w, i_l)) in
  let dv = Add (Neg itotal, Var istim_idx) in
  let dh = Div (Sub (hinf, Var ih), tauh) in
  let dn = Div (Sub (ninf, Var in_), taun) in
  let dw = Div (Sub (winf, Var iw), tauw) in
  [ dv; dh; dn; dw ]

(** Melodee trees for [dv; dh; dn; dw]. *)
let variant_exprs variant =
  let lo, hi = v_range in
  match variant with
  | Libm ->
      (* exact expressions; reconstruct the AST form of each rate *)
      let rate f v =
        if f == m_inf then sigmoid_ast ~vh:(-40.0) ~s:6.0 v
        else if f == h_inf then sigmoid_ast ~vh:(-70.0) ~s:(-7.0) v
        else if f == n_inf then sigmoid_ast ~vh:(-25.0) ~s:8.0 v
        else if f == w_inf then sigmoid_ast ~vh:(-60.0) ~s:10.0 v
        else if f == tau_h then bell_ast ~tmin:1.0 ~tamp:8.0 ~vp:(-75.0) ~w:20.0 v
        else if f == tau_n then bell_ast ~tmin:25.0 ~tamp:80.0 ~vp:(-30.0) ~w:30.0 v
        else bell_ast ~tmin:60.0 ~tamp:200.0 ~vp:(-60.0) ~w:40.0 v
      in
      build_exprs ~rate
  | Rational | Rational_folded ->
      let rate f v = fit_function ~lo ~hi ~np:6 ~nq:6 f v in
      List.map constant_fold (build_exprs ~rate)

(** Compiled derivative function: state+input array -> derivative array. *)
let compile_variant variant =
  let fns = Array.of_list (List.map compile (variant_exprs variant)) in
  fun env -> Array.map (fun f -> f env) fns

(** The zero-alloc kernel form: one stack program per derivative
    component, plus the widest stack any of them needs. *)
type kernel = { progs : Melodee.program array; depth : int }

let compile_kernel variant =
  let progs =
    Array.of_list (List.map Melodee.compile_program (variant_exprs variant))
  in
  let depth =
    Array.fold_left (fun m p -> max m (Melodee.program_depth p)) 1 progs
  in
  { progs; depth }

(** Per-cell per-step flop cost of a variant. [expensive_flops] models the
    price of a double-precision exp on the target. *)
let variant_flops ?(expensive_flops = 50.0) variant =
  List.fold_left
    (fun acc e -> acc +. eval_cost ~expensive_flops e)
    0.0 (variant_exprs variant)

(** Per-cell per-step memory loads (the compile-time-constants win). *)
let variant_loads variant =
  let folded = variant = Rational_folded in
  List.fold_left
    (fun acc e -> acc + load_count ~folded e)
    0 (variant_exprs variant)

(** Initial state at rest (gates at steady state for v_rest). *)
let initial_state () =
  let env = Array.make (n_state + 1) 0.0 in
  env.(iv) <- v_rest;
  env.(ih) <- h_inf v_rest;
  env.(in_) <- n_inf v_rest;
  env.(iw) <- w_inf v_rest;
  env

(** Integrate a single cell with forward Euler at [dt] (ms) for [steps],
    applying [stim] during the first 100 steps. Returns the voltage
    trace. *)
let single_cell_trace ?(dt = 0.02) ?(steps = 20_000) ?(stim = 40.0) deriv =
  let env = initial_state () in
  let trace = Array.make steps 0.0 in
  for s = 0 to steps - 1 do
    env.(istim_idx) <- (if s < 100 then stim else 0.0);
    let d = deriv env in
    for k = 0 to n_state - 1 do
      env.(k) <- env.(k) +. (dt *. d.(k))
    done;
    trace.(s) <- env.(iv)
  done;
  trace

(** CVODE-style time integration: adaptive BDF with Newton for stiff
    problems, Adams predictor-corrector with functional iteration for
    non-stiff ones, plus an adaptive explicit RK3(2).

    The integrator mirrors the SUNDIALS control split the paper relies on:
    high-level control flow lives here (host side); all heavy lifting is in
    the user's [rhs] and [lsolve] callbacks, which is where device residency
    and simulated cost are decided. [lsolve ~gamma ~t ~y ~b] must return an
    (approximate) solution of (I - gamma*J(t,y)) x = b; hooking hypre's
    AMG-preconditioned CG in there reproduces the paper's MFEM/hypre/
    SUNDIALS stack. *)

type stats = {
  mutable nsteps : int;
  mutable nfevals : int;
  mutable nniters : int;  (** Newton (or fixed-point) iterations *)
  mutable nlsolves : int;
  mutable netf : int;  (** error-test failures *)
  mutable nncf : int;  (** nonlinear-convergence failures *)
}

let new_stats () =
  { nsteps = 0; nfevals = 0; nniters = 0; nlsolves = 0; netf = 0; nncf = 0 }

type rhs = float -> float array -> float array
(** [rhs t y] returns dy/dt. *)

type lsolve = gamma:float -> t:float -> y:float array -> b:float array -> float array
(** Approximate solve of (I - gamma J) x = b. *)

exception Too_much_work of string

let error_weights ~rtol ~atol y =
  Array.map (fun yi -> 1.0 /. ((rtol *. Float.abs yi) +. atol)) y

(* --- built-in linear solvers for dense problems --- *)

(** Dense direct lsolve from an analytic Jacobian [jac t y]. *)
let dense_lsolve ~(jac : float -> float array -> Linalg.Dense.t) : lsolve =
 fun ~gamma ~t ~y ~b ->
  let j = jac t y in
  let n = Array.length y in
  let m =
    Linalg.Dense.init n n (fun r c ->
        (if r = c then 1.0 else 0.0) -. (gamma *. Linalg.Dense.get j r c))
  in
  Linalg.Dense.solve m b

(* --- Newton iteration for the implicit BDF stage --- *)

(* Solve y = c + gamma * f(t, y) by modified Newton. Returns Some y or None
   on nonconvergence. *)
let newton_solve ~rhs ~lsolve ~stats ~gamma ~t ~c ~y_guess ~weights ~maxiters =
  let y = Array.copy y_guess in
  let converged = ref false in
  let iters = ref 0 in
  while (not !converged) && !iters < maxiters do
    let f = rhs t y in
    stats.nfevals <- stats.nfevals + 1;
    (* residual R = c + gamma f - y ; Newton update solves (I-gJ) d = R *)
    let r = Array.init (Array.length y) (fun i -> c.(i) +. (gamma *. f.(i)) -. y.(i)) in
    let d = lsolve ~gamma ~t ~y ~b:r in
    stats.nlsolves <- stats.nlsolves + 1;
    Linalg.Vec.axpy 1.0 d y;
    stats.nniters <- stats.nniters + 1;
    incr iters;
    let dnorm = Linalg.Vec.wrms d weights in
    if dnorm < 0.1 then converged := true
  done;
  if !converged then Some y else None

(* --- BDF2 adaptive integrator --- *)

type result = { y : float array; t : float; stats : stats }

(* Integration work per method, recorded when an integrate call returns.
   Handles are created once at module init. *)
let record =
  let handles meth =
    let labels = [ ("method", meth) ] in
    let c help name = Icoe_obs.Metrics.counter ~help ~labels name in
    ( c "Accepted time steps" "cvode_steps_total",
      c "Rejected steps (error test + nonlinear failures)"
        "cvode_rejected_steps_total",
      c "Newton / fixed-point iterations" "cvode_nonlinear_iterations_total",
      c "Right-hand-side evaluations" "cvode_rhs_evals_total" )
  in
  let bdf_h = handles "bdf" in
  let adams_h = handles "adams" in
  let erk_h = handles "erk23" in
  fun meth (r : result) ->
    let steps, rejected, nniters, fevals =
      match meth with `Bdf -> bdf_h | `Adams -> adams_h | `Erk23 -> erk_h
    in
    let f = float_of_int in
    Icoe_obs.Metrics.inc ~by:(f r.stats.nsteps) steps;
    Icoe_obs.Metrics.inc ~by:(f (r.stats.netf + r.stats.nncf)) rejected;
    Icoe_obs.Metrics.inc ~by:(f r.stats.nniters) nniters;
    Icoe_obs.Metrics.inc ~by:(f r.stats.nfevals) fevals;
    r

(** Adaptive BDF (order 1 start-up step, order 2 thereafter, variable step)
    with Newton. This is the stiff path used for the paper's nonlinear
    diffusion runs. *)
(* Lagrange extrapolation of the history polynomial at time [te]. [pts] is
   (t_i, y_i) newest-first; the polynomial degree is length pts - 1. *)
let lagrange_extrapolate pts te =
  match pts with
  | [] -> invalid_arg "lagrange_extrapolate: empty history"
  | (_, y0) :: _ ->
      let n = Array.length y0 in
      let out = Array.make n 0.0 in
      List.iteri
        (fun i (ti, yi) ->
          let w = ref 1.0 in
          List.iteri
            (fun j (tj, _) ->
              if i <> j then w := !w *. ((te -. tj) /. (ti -. tj)))
            pts;
          Linalg.Vec.axpy !w yi out)
        pts;
      out

(** Adaptive BDF (order 1 start-up, order 2 thereafter, variable step) with
    modified Newton. The local-error estimate is corrector minus the
    quadratic history predictor — the standard same-order embedded estimate,
    O(h^3) for the BDF2 phase. This is the stiff path used for the paper's
    nonlinear diffusion runs. *)
let newton_maxiters = 6
let fp_maxiters = 10

let bdf ?(rtol = 1e-6) ?(atol = 1e-9) ?(h0 = 1e-4) ?(max_steps = 200_000)
    ~(rhs : rhs) ~(lsolve : lsolve) ~t0 ~y0 tstop =
  let stats = new_stats () in
  let t = ref t0 in
  let h = ref (min h0 (tstop -. t0)) in
  let yn = ref (Array.copy y0) in
  (* history of accepted (t, y), newest first, at most 3 entries *)
  let hist = ref [ (t0, Array.copy y0) ] in
  let steps = ref 0 in
  while !t < tstop -. 1e-14 do
    if !steps > max_steps then
      raise (Too_much_work (Fmt.str "BDF exceeded %d steps at t=%g" max_steps !t));
    incr steps;
    let hcur = min !h (tstop -. !t) in
    let weights = error_weights ~rtol ~atol !yn in
    let tnew = !t +. hcur in
    let attempt =
      match !hist with
      | [] -> assert false
      | [ _ ] ->
          (* BDF1 (backward Euler) start-up with step-doubling estimate *)
          let gamma = hcur in
          (match
             newton_solve ~rhs ~lsolve ~stats ~gamma ~t:tnew ~c:!yn
               ~y_guess:!yn ~weights ~maxiters:newton_maxiters
           with
          | None -> `Newton_failed
          | Some y1 ->
              let gamma2 = hcur /. 2.0 in
              let mid =
                newton_solve ~rhs ~lsolve ~stats ~gamma:gamma2
                  ~t:(!t +. gamma2) ~c:!yn ~y_guess:!yn ~weights
                  ~maxiters:newton_maxiters
              in
              (match mid with
              | None -> `Newton_failed
              | Some ymid -> (
                  match
                    newton_solve ~rhs ~lsolve ~stats ~gamma:gamma2 ~t:tnew
                      ~c:ymid ~y_guess:y1 ~weights ~maxiters:newton_maxiters
                  with
                  | None -> `Newton_failed
                  | Some y2 ->
                      let le = Linalg.Vec.sub y2 y1 in
                      let err = Linalg.Vec.wrms le weights in
                      `Done (y2, err, 1))))
      | (tn, _) :: (tm1, ym1) :: _ ->
          (* variable-step BDF2 with rho = hcur / previous step *)
          let hold = tn -. tm1 in
          let rho = hcur /. hold in
          let a0 = (1.0 +. rho) ** 2.0 /. (1.0 +. (2.0 *. rho)) in
          let a1 = -.(rho ** 2.0) /. (1.0 +. (2.0 *. rho)) in
          let beta = (1.0 +. rho) /. (1.0 +. (2.0 *. rho)) in
          let gamma = hcur *. beta in
          let c =
            Array.init (Array.length !yn) (fun i ->
                (a0 *. !yn.(i)) +. (a1 *. ym1.(i)))
          in
          (* predictor: extrapolate the full history polynomial (quadratic
             once 3 points exist) — its error matches the corrector's order,
             making the difference a valid O(h^3) LTE estimate *)
          let pred = lagrange_extrapolate !hist tnew in
          (match
             newton_solve ~rhs ~lsolve ~stats ~gamma ~t:tnew ~c ~y_guess:pred
               ~weights ~maxiters:newton_maxiters
           with
          | None -> `Newton_failed
          | Some ynew ->
              let le = Linalg.Vec.sub ynew pred in
              let cq =
                if List.length !hist >= 3 then 0.5
                else (1.0 +. rho) /. (1.0 +. (3.0 *. rho))
              in
              let order = if List.length !hist >= 3 then 2 else 1 in
              let err = cq *. Linalg.Vec.wrms le weights in
              `Done (ynew, err, order))
    in
    match attempt with
    | `Newton_failed ->
        stats.nncf <- stats.nncf + 1;
        h := hcur /. 4.0;
        if !h < 1e-14 *. max 1.0 (Float.abs tstop) then
          raise (Too_much_work "BDF step underflow (Newton)")
    | `Done (ynew, err, order) ->
        if err <= 1.0 then begin
          stats.nsteps <- stats.nsteps + 1;
          yn := ynew;
          t := tnew;
          hist :=
            (tnew, Array.copy ynew)
            :: (match !hist with a :: b :: _ -> [ a; b ] | l -> l);
          let grow =
            0.9 *. ((1.0 /. max err 1e-10) ** (1.0 /. float_of_int (order + 1)))
          in
          h := hcur *. min 5.0 (max 0.2 grow)
        end
        else begin
          stats.netf <- stats.netf + 1;
          let shrink =
            0.9 *. ((1.0 /. err) ** (1.0 /. float_of_int (order + 1)))
          in
          h := hcur *. min 0.9 (max 0.1 shrink);
          if !h < 1e-14 *. max 1.0 (Float.abs tstop) then
            raise (Too_much_work "BDF step underflow (error test)")
        end
  done;
  record `Bdf { y = !yn; t = !t; stats }

(* --- Adams-Bashforth-Moulton 2 with functional iteration (non-stiff) --- *)

let adams ?(rtol = 1e-6) ?(atol = 1e-9) ~(rhs : rhs) ~t0 ~y0 tstop =
  let h0 = 1e-4 and max_steps = 500_000 in
  let stats = new_stats () in
  let t = ref t0 in
  let h = ref (min h0 (tstop -. t0)) in
  let yn = ref (Array.copy y0) in
  let fn = ref (rhs t0 y0) in
  stats.nfevals <- stats.nfevals + 1;
  let steps = ref 0 in
  while !t < tstop -. 1e-14 do
    if !steps > max_steps then
      raise (Too_much_work (Fmt.str "Adams exceeded %d steps at t=%g" max_steps !t));
    incr steps;
    let hcur = min !h (tstop -. !t) in
    let tnew = !t +. hcur in
    let weights = error_weights ~rtol ~atol !yn in
    (* predictor: forward Euler *)
    let pred = Array.init (Array.length !yn) (fun i -> !yn.(i) +. (hcur *. !fn.(i))) in
    (* corrector: trapezoid via fixed-point iteration *)
    let y = ref pred in
    let converged = ref false in
    let it = ref 0 in
    let fnew = ref !fn in
    while (not !converged) && !it < fp_maxiters do
      fnew := rhs tnew !y;
      stats.nfevals <- stats.nfevals + 1;
      let ynext =
        Array.init (Array.length !yn) (fun i ->
            !yn.(i) +. (hcur /. 2.0 *. (!fn.(i) +. !fnew.(i))))
      in
      let d = Linalg.Vec.sub ynext !y in
      y := ynext;
      stats.nniters <- stats.nniters + 1;
      incr it;
      if Linalg.Vec.wrms d weights < 0.1 then converged := true
    done;
    if not !converged then begin
      stats.nncf <- stats.nncf + 1;
      h := hcur /. 2.0;
      if !h < 1e-15 then raise (Too_much_work "Adams step underflow")
    end
    else begin
      (* LTE ~ (corrector - predictor)/2 for AB1/AM2 pair *)
      let le = Linalg.Vec.sub !y pred in
      let err = 0.5 *. Linalg.Vec.wrms le weights in
      if err <= 1.0 then begin
        stats.nsteps <- stats.nsteps + 1;
        yn := !y;
        fn := rhs tnew !y;
        stats.nfevals <- stats.nfevals + 1;
        t := tnew;
        let grow = 0.9 *. ((1.0 /. max err 1e-10) ** (1.0 /. 3.0)) in
        h := hcur *. min 4.0 (max 0.2 grow)
      end
      else begin
        stats.netf <- stats.netf + 1;
        h := hcur *. max 0.1 (0.9 *. ((1.0 /. err) ** (1.0 /. 3.0)))
      end
    end
  done;
  record `Adams { y = !yn; t = !t; stats }

(** Adaptive explicit Bogacki-Shampine RK3(2) — the ERK path of a
    SUNDIALS-style suite (ARKODE's small sibling) for non-stiff problems
    with error control but no nonlinear solves. *)
let erk23 ?(rtol = 1e-6) ?(atol = 1e-9) ~(rhs : rhs) ~t0 ~y0 tstop =
  let h0 = 1e-4 and max_steps = 500_000 in
  let stats = new_stats () in
  let n = Array.length y0 in
  let t = ref t0 in
  let h = ref (min h0 (tstop -. t0)) in
  let y = ref (Array.copy y0) in
  let k1 = ref (rhs t0 y0) in
  stats.nfevals <- stats.nfevals + 1;
  let steps = ref 0 in
  while !t < tstop -. 1e-14 do
    if !steps > max_steps then
      raise (Too_much_work (Fmt.str "ERK23 exceeded %d steps at t=%g" max_steps !t));
    incr steps;
    let hcur = min !h (tstop -. !t) in
    let weights = error_weights ~rtol ~atol !y in
    (* Bogacki-Shampine tableau (FSAL) *)
    let y2 = Array.init n (fun i -> !y.(i) +. (hcur *. 0.5 *. !k1.(i))) in
    let k2 = rhs (!t +. (0.5 *. hcur)) y2 in
    let y3 = Array.init n (fun i -> !y.(i) +. (hcur *. 0.75 *. k2.(i))) in
    let k3 = rhs (!t +. (0.75 *. hcur)) y3 in
    let ynew =
      Array.init n (fun i ->
          !y.(i)
          +. (hcur
             *. ((2.0 /. 9.0 *. !k1.(i)) +. (1.0 /. 3.0 *. k2.(i))
                +. (4.0 /. 9.0 *. k3.(i)))))
    in
    let k4 = rhs (!t +. hcur) ynew in
    stats.nfevals <- stats.nfevals + 3;
    (* embedded 2nd-order solution for the error estimate *)
    let le =
      Array.init n (fun i ->
          hcur
          *. ((7.0 /. 24.0 *. !k1.(i)) +. (0.25 *. k2.(i)) +. (1.0 /. 3.0 *. k3.(i))
             +. (0.125 *. k4.(i)))
          +. !y.(i) -. ynew.(i))
    in
    let err = Linalg.Vec.wrms le weights in
    if err <= 1.0 then begin
      stats.nsteps <- stats.nsteps + 1;
      y := ynew;
      k1 := k4 (* FSAL *);
      t := !t +. hcur;
      h := hcur *. min 5.0 (max 0.2 (0.9 *. ((1.0 /. max err 1e-10) ** (1.0 /. 3.0))))
    end
    else begin
      stats.netf <- stats.netf + 1;
      h := hcur *. max 0.1 (0.9 *. ((1.0 /. err) ** (1.0 /. 3.0)));
      if !h < 1e-15 then raise (Too_much_work "ERK23 step underflow")
    end
  done;
  record `Erk23 { y = !y; t = !t; stats }

(** Transition-rate evaluation and rate-matrix assembly/solution.

    The main computation of Cretin: "calculates transition rates between
    pairs of states, forms a rate matrix from them, and inverts that matrix
    to update the populations" (Sec 4.3). Steady state solves M n = 0 with
    sum(n) = 1 by the cuSOLVER analog (dense LU). *)

type conditions = {
  te : float;  (** electron temperature, eV *)
  ne : float;  (** electron density, cm^-3 *)
  radiation : float;  (** mean radiation field scale for photo rates *)
}

(* per-pair rates for each transition type; returns (rate upper->lower,
   rate lower->upper) *)
let pair_rates (model : Atomic.t) cond = function
  | Atomic.Collisional { upper; lower; c0 } ->
      let lu = model.Atomic.levels.(upper) and ll = model.Atomic.levels.(lower) in
      let de = lu.Atomic.energy -. ll.Atomic.energy in
      (* deexcitation ~ ne c0 / sqrt(Te); excitation from detailed balance *)
      let down = cond.ne *. c0 /. sqrt cond.te in
      let up =
        down *. (lu.Atomic.weight /. ll.Atomic.weight) *. exp (-.de /. cond.te)
      in
      (down, up)
  | Atomic.Radiative { a; _ } -> (a, 0.0)
  | Atomic.Photo { upper; lower; strength } ->
      (* quadrature over a Planck-ish line profile: the deliberately heavy
         loop of the photo mini-app *)
      let lu = model.Atomic.levels.(upper) and ll = model.Atomic.levels.(lower) in
      let de = max 0.1 (lu.Atomic.energy -. ll.Atomic.energy) in
      let nq = 32 in
      let acc = ref 0.0 in
      for q = 0 to nq - 1 do
        let x = (float_of_int q +. 0.5) /. float_of_int nq *. 4.0 in
        (* line profile x exponential radiation spectrum *)
        let profile = exp (-.((x -. 2.0) ** 2.0)) in
        let spectrum = cond.radiation /. (exp (de *. x /. (2.0 *. cond.te)) -. 1.0 +. 1e-9) in
        acc := !acc +. (profile *. spectrum)
      done;
      let up = !acc *. strength /. float_of_int nq in
      (0.0, up)

(** Dense rate matrix M: dn/dt = M n. Column sums are zero by
    construction (population conservation). *)
let assemble (model : Atomic.t) cond =
  let n = Atomic.n_levels model in
  let m = Linalg.Dense.create n n in
  List.iter
    (fun tr ->
      let upper, lower =
        match tr with
        | Atomic.Collisional { upper; lower; _ }
        | Atomic.Radiative { upper; lower; _ }
        | Atomic.Photo { upper; lower; _ } -> (upper, lower)
      in
      let down, up = pair_rates model cond tr in
      (* down: upper -> lower *)
      Linalg.Dense.update m lower upper (fun v -> v +. down);
      Linalg.Dense.update m upper upper (fun v -> v -. down);
      (* up: lower -> upper *)
      Linalg.Dense.update m upper lower (fun v -> v +. up);
      Linalg.Dense.update m lower lower (fun v -> v -. up))
    model.Atomic.transitions;
  m

(** Steady-state populations: solve M n = 0, sum n = 1, by replacing the
    last row with the normalization (direct LU — the cuSOLVER path). *)
let solve_direct (model : Atomic.t) cond =
  let n = Atomic.n_levels model in
  let m = assemble model cond in
  for j = 0 to n - 1 do
    Linalg.Dense.set m (n - 1) j 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  Linalg.Dense.solve m b

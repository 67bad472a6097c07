(** Atomic models for the non-LTE kinetics package.

    A model is a set of levels (energy, statistical weight) and the
    transitions connecting them. Three transition-rate types mirror the
    three Cretin mini-apps, each with a distinct computational profile:

    - [Collisional]: electron-impact excitation/deexcitation, exp-heavy,
      density- and temperature-dependent;
    - [Radiative]: spontaneous decay, a constant A coefficient;
    - [Photo]: photoexcitation by a radiation field, evaluated as a
      frequency-integral (quadrature loop — the heavy one). *)

type level = { energy : float;  (** above ground, eV *) weight : float }

type transition =
  | Collisional of { upper : int; lower : int; c0 : float }
      (** deexcitation rate coefficient; excitation follows from detailed
          balance *)
  | Radiative of { upper : int; lower : int; a : float }
  | Photo of { upper : int; lower : int; strength : float }

type t = { name : string; levels : level array; transitions : transition list }

let n_levels t = Array.length t.levels

(** Hydrogen-like ladder model with [n] levels: energies E_k = E0 (1 - 1/k^2),
    weights 2k^2, collisional + radiative transitions between adjacent
    levels and radiative decay to ground. Scales from toy to "large atomic
    model" by [n]. *)
let ladder ?(name = "ladder") ?(e0 = 13.6) n =
  if not (n >= 2) then
    invalid_arg (Printf.sprintf "Atomic.ladder: n = %d levels, need >= 2" n);
  let levels =
    Array.init n (fun k ->
        let kk = float_of_int (k + 1) in
        { energy = e0 *. (1.0 -. (1.0 /. (kk *. kk))); weight = 2.0 *. kk *. kk })
  in
  let transitions = ref [] in
  for u = 1 to n - 1 do
    (* adjacent collisional coupling *)
    transitions :=
      Collisional { upper = u; lower = u - 1; c0 = 1.0e-8 } :: !transitions;
    (* radiative decay to ground, weaker from higher levels *)
    transitions :=
      Radiative { upper = u; lower = 0; a = 1.0e8 /. float_of_int (u * u) }
      :: !transitions
  done;
  { name; levels; transitions = !transitions }

(** A richer model with photoexcitation, for the photo-rate code path. *)
let ladder_with_photo ?(photo_strength = 1.0e3) n =
  let base = ladder ~name:"ladder+photo" n in
  let photo =
    List.init (n - 1) (fun u ->
        Photo { upper = u + 1; lower = 0; strength = photo_strength })
  in
  { base with transitions = base.transitions @ photo }

(** Boltzmann (LTE) populations at electron temperature [te] (eV),
    normalized to sum 1 — the reference the non-LTE solution deviates
    from. *)
let boltzmann t ~te =
  let w =
    Array.map (fun l -> l.weight *. exp (-.l.energy /. te)) t.levels
  in
  let z = Icoe_util.Stats.sum w in
  Array.map (fun x -> x /. z) w

(** Memory footprint of processing one zone of this model, bytes: the rate
    matrix plus workspaces. This drives the Sec 4.3 threading-memory
    trade-off. *)
let zone_bytes t =
  let n = float_of_int (n_levels t) in
  8.0 *. ((3.0 *. n *. n) +. (8.0 *. n))

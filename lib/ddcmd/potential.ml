(** The generic pair-processing infrastructure (Sec 4.6): "a templatized
    generic pair processing infrastructure that can be used to efficiently
    implement a diverse set of potential forms".

    A potential is a record of closures over (species_i, species_j, r^2):
    the force loop is written once, any functional form plugs in. The
    primitive is [eval_into], which works over a 3-wide slot of a
    caller-provided buffer: r^2 is READ from [off], energy and f_over_r
    are WRITTEN to [off + 1] and [off + 2]. Passing r^2 through the slot
    rather than as a float argument matters: [eval_into] is an indirect
    call through a record field, and without flambda every float passed
    to an unknown function is boxed — two words per pair, the dominant
    allocation of the whole force loop. The force kernel hands it a
    per-chunk scratch slot, so evaluating a pair allocates nothing. The
    tuple-returning {!eval} wrapper remains for tests and observables.
    Energies are shifted to zero at the cutoff so they are continuous. *)

module Fbuf = Icoe_util.Fbuf

type t = {
  name : string;
  cutoff : float;
  eval_into : si:int -> sj:int -> Fbuf.t -> int -> unit;
      (** reads r^2 from [off]; writes energy at [off + 1], f_over_r at
          [off + 2]; force vector on i is f_over_r * (ri - rj) *)
}

(** Tuple-returning convenience wrapper (allocates; tests and
    single-pair probes only — the force loop uses [eval_into]). *)
let eval t ~si ~sj ~r2 =
  let slot = Fbuf.create 3 in
  Fbuf.set slot 0 r2;
  t.eval_into ~si ~sj slot 0;
  (Fbuf.get slot 1, Fbuf.get slot 2)

(** Lennard-Jones 12-6 with energy shifted to 0 at the cutoff. *)
let lennard_jones ?(epsilon = 1.0) ?(sigma = 1.0) ?(cutoff = 2.5) () =
  let c2 = cutoff *. cutoff *. sigma *. sigma in
  let shift =
    let sr6 = (sigma /. (cutoff *. sigma)) ** 6.0 in
    4.0 *. epsilon *. ((sr6 *. sr6) -. sr6)
  in
  {
    name = "lj";
    cutoff = cutoff *. sigma;
    eval_into =
      (fun ~si:_ ~sj:_ out off ->
        let r2 = Fbuf.get out off in
        if r2 >= c2 then begin
          Fbuf.set out (off + 1) 0.0;
          Fbuf.set out (off + 2) 0.0
        end
        else begin
          let inv_r2 = sigma *. sigma /. r2 in
          let sr6 = inv_r2 ** 3.0 in
          let sr12 = sr6 *. sr6 in
          Fbuf.set out (off + 1) ((4.0 *. epsilon *. (sr12 -. sr6)) -. shift);
          Fbuf.set out (off + 2)
            (24.0 *. epsilon *. ((2.0 *. sr12) -. sr6) /. r2)
        end);
  }

(** Martini-style coarse-grained LJ: per-species-pair epsilon/sigma matrix
    (the community-standard membrane force field the MuMMI micro model
    uses). *)
let martini ~(epsilon : float array array) ~(sigma : float array array)
    ?(cutoff = 1.2) () =
  {
    name = "martini";
    cutoff;
    eval_into =
      (fun ~si ~sj out off ->
        let r2 = Fbuf.get out off in
        if r2 >= cutoff *. cutoff then begin
          Fbuf.set out (off + 1) 0.0;
          Fbuf.set out (off + 2) 0.0
        end
        else begin
          let eps = epsilon.(si).(sj) and sg = sigma.(si).(sj) in
          let inv_r2 = sg *. sg /. r2 in
          let sr6 = inv_r2 ** 3.0 in
          let sr12 = sr6 *. sr6 in
          Fbuf.set out (off + 1) (4.0 *. eps *. (sr12 -. sr6));
          Fbuf.set out (off + 2) (24.0 *. eps *. ((2.0 *. sr12) -. sr6) /. r2)
        end);
  }

(** Purely repulsive soft sphere of unit strength (for fast smoke
    tests). *)
let soft_sphere ?(sigma = 1.0) () =
  {
    name = "soft";
    cutoff = sigma;
    eval_into =
      (fun ~si:_ ~sj:_ out off ->
        let r2 = Fbuf.get out off in
        if r2 >= sigma *. sigma then begin
          Fbuf.set out (off + 1) 0.0;
          Fbuf.set out (off + 2) 0.0
        end
        else begin
          let r = sqrt r2 in
          let overlap = 1.0 -. (r /. sigma) in
          Fbuf.set out (off + 1) (overlap *. overlap);
          Fbuf.set out (off + 2) (2.0 *. overlap /. (sigma *. r))
        end);
  }

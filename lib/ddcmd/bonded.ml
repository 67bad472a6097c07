(** Bonded interactions: harmonic bonds, the "nested, pointer-rich"
    terms the paper had to marshal for the GPU. *)

type bond = { bi : int; bj : int; k : float; r0 : float }

(** Accumulate bond forces and return the bond potential energy. *)
module Fbuf = Icoe_util.Fbuf

let bond_forces (p : Particles.t) bonds =
  List.fold_left
    (fun acc { bi; bj; k; r0 } ->
      let dx = Particles.min_image p ((Fbuf.get p.Particles.x bi) -. (Fbuf.get p.Particles.x bj)) in
      let dy = Particles.min_image p ((Fbuf.get p.Particles.y bi) -. (Fbuf.get p.Particles.y bj)) in
      let dz = Particles.min_image p ((Fbuf.get p.Particles.z bi) -. (Fbuf.get p.Particles.z bj)) in
      let r = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
      let dr = r -. r0 in
      (* F_i = -k (r - r0) * rhat *)
      let fmag = -.k *. dr /. max r 1e-12 in
      Fbuf.set p.Particles.fx bi ((Fbuf.get p.Particles.fx bi) +. (fmag *. dx));
      Fbuf.set p.Particles.fy bi ((Fbuf.get p.Particles.fy bi) +. (fmag *. dy));
      Fbuf.set p.Particles.fz bi ((Fbuf.get p.Particles.fz bi) +. (fmag *. dz));
      Fbuf.set p.Particles.fx bj ((Fbuf.get p.Particles.fx bj) -. (fmag *. dx));
      Fbuf.set p.Particles.fy bj ((Fbuf.get p.Particles.fy bj) -. (fmag *. dy));
      Fbuf.set p.Particles.fz bj ((Fbuf.get p.Particles.fz bj) -. (fmag *. dz));
      acc +. (0.5 *. k *. dr *. dr))
    0.0 bonds


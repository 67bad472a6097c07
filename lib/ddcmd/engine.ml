(** The ddcMD engine: the full MD loop the paper moved onto the GPU —
    nonbonded (generic pair infrastructure over linked cells), bonded
    terms, velocity Verlet, Langevin thermostat and SHAKE-style bond
    constraints.

    The force kernel is allocation-free in steady state: particle
    components live in {!Icoe_util.Fbuf} Bigarrays, the neighbour walk
    is inlined into the chunk body (a closure per particle would box
    the force accumulators), pair evaluations write into per-chunk
    scratch slots ({!Potential.eval_into}), energy/virial partials land
    in a preallocated slot per chunk, and the cell lists are rebuilt in
    place. The arithmetic is unchanged, so results are bit-identical to
    the boxed layout it replaced. *)

module Fbuf = Icoe_util.Fbuf
module Pool = Icoe_par.Pool

type t = {
  p : Particles.t;
  potential : Potential.t;
  bonds : Bonded.bond list;
  constraints : (int * int * float) list;  (** (i, j, fixed distance) *)
  dt : float;
  mutable pot_energy : float;
  mutable virial : float;
  mutable steps : int;
  mutable pair_count : int;  (** pairs evaluated last force call *)
  mutable cells : Cells.t option;  (** last build, reused in place *)
  arena : Prog.Scratch.t;  (** per-chunk force-kernel scratch *)
}

let m_force_evals =
  Icoe_obs.Metrics.counter ~help:"Full force recomputations"
    "md_force_evaluations_total"

let m_pairs =
  Icoe_obs.Metrics.counter ~help:"Pair interactions evaluated"
    "md_pair_interactions_total"

let m_steps =
  Icoe_obs.Metrics.counter ~help:"Velocity-Verlet steps" "md_steps_total"

let m_drift =
  Icoe_obs.Metrics.gauge
    ~help:"Relative total-energy drift over the last run call"
    "md_energy_drift"

let create ?(bonds = []) ?(constraints = []) ~dt ~potential p =
  if not (dt > 0.0 && Float.is_finite dt) then
    invalid_arg
      (Fmt.str "Ddcmd.Engine.create: dt must be positive and finite, got %g" dt);
  {
    p;
    potential;
    bonds;
    constraints;
    dt;
    pot_energy = 0.0;
    virial = 0.0;
    steps = 0;
    pair_count = 0;
    cells = None;
    arena = Prog.Scratch.create ();
  }

(* Nonbonded forces on particles [lo, hi): the per-particle full-shell
   enumeration (each pair seen from both ends, so every particle's force
   sum is written by exactly one iteration — no synchronization, and the
   same summation order whoever runs the chunk). The 27-cell walk over
   the [Cells] lists is written inline, so the force accumulators stay
   in registers instead of escaping into a closure. Chunk [k]'s (2*epot, 2*virial, evaluations) partials land in
   its slot of [partials]; pair evaluations go through its 3-wide slot
   of [pairbuf] (r2 in, energy/f_over_r out). Allocation-free. *)
let nonbonded_chunk t cl partials pairbuf k lo hi =
  let p = t.p in
  let cutoff = t.potential.Potential.cutoff in
  let eval_into = t.potential.Potential.eval_into in
  let species = p.Particles.species in
  let c2 = cutoff *. cutoff in
  let poff = 3 * k in
  let epot2 = ref 0.0 and virial2 = ref 0.0 and evals = ref 0 in
  let { Cells.ncell = nc; cell_size; head; next } = cl in
  (* separation and squared distance computed in place: calling
     Particles.dist2/min_image per candidate pair would box a float
     return per call (no cross-module inlining without flambda). The
     branch structure matches Particles.min_image exactly — [-.half] is
     [-.box /. 2.0] to the bit — so r2 and the force updates are
     unchanged. *)
  let xb = p.Particles.x and yb = p.Particles.y and zb = p.Particles.z in
  let box = p.Particles.box in
  let half = box /. 2.0 in
  (* the per-pair body appears twice (all-particles fallback and cell
     walk) rather than as a local function: a closure here would be
     allocated per particle and box the force accumulators *)
  for i = lo to hi - 1 do
    let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
    let si = Array.unsafe_get species i in
    (if nc < 3 then
       for j = 0 to p.Particles.n - 1 do
         if j <> i then begin
           let dx0 = Fbuf.get xb i -. Fbuf.get xb j in
           let dx =
             if dx0 > half then dx0 -. box
             else if dx0 < -.half then dx0 +. box
             else dx0
           in
           let dy0 = Fbuf.get yb i -. Fbuf.get yb j in
           let dy =
             if dy0 > half then dy0 -. box
             else if dy0 < -.half then dy0 +. box
             else dy0
           in
           let dz0 = Fbuf.get zb i -. Fbuf.get zb j in
           let dz =
             if dz0 > half then dz0 -. box
             else if dz0 < -.half then dz0 +. box
             else dz0
           in
           let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
           if r2 <= c2 then begin
             incr evals;
             Fbuf.set pairbuf poff r2;
             eval_into ~si ~sj:(Array.unsafe_get species j) pairbuf poff;
             let e = Fbuf.get pairbuf (poff + 1)
             and f_over_r = Fbuf.get pairbuf (poff + 2) in
             if f_over_r <> 0.0 || e <> 0.0 then begin
               epot2 := !epot2 +. e;
               virial2 := !virial2 +. (f_over_r *. r2);
               fx := !fx +. (f_over_r *. dx);
               fy := !fy +. (f_over_r *. dy);
               fz := !fz +. (f_over_r *. dz)
             end
           end
         end
       done
     else begin
       (* Cells.cell_coord computed in place (same expression, both-ends
          clamp): the cross-module call would box its float arguments on
          every particle *)
       let cx =
         min (nc - 1) (max 0 (int_of_float (Fbuf.get xb i /. cell_size)))
       and cy =
         min (nc - 1) (max 0 (int_of_float (Fbuf.get yb i /. cell_size)))
       and cz =
         min (nc - 1) (max 0 (int_of_float (Fbuf.get zb i /. cell_size)))
       in
       for ddz = -1 to 1 do
         for ddy = -1 to 1 do
           for ddx = -1 to 1 do
             (* periodic cell wrap written out — even a chunk-level
                closure shows up at 60+ chunks per call *)
             let wx = (((cx + ddx) mod nc) + nc) mod nc
             and wy = (((cy + ddy) mod nc) + nc) mod nc
             and wz = (((cz + ddz) mod nc) + nc) mod nc in
             let c' = wx + (nc * (wy + (nc * wz))) in
             let jr = ref (Array.unsafe_get head c') in
             while !jr >= 0 do
               let j = !jr in
               if j <> i then begin
                 let dx0 = Fbuf.get xb i -. Fbuf.get xb j in
                 let dx =
                   if dx0 > half then dx0 -. box
                   else if dx0 < -.half then dx0 +. box
                   else dx0
                 in
                 let dy0 = Fbuf.get yb i -. Fbuf.get yb j in
                 let dy =
                   if dy0 > half then dy0 -. box
                   else if dy0 < -.half then dy0 +. box
                   else dy0
                 in
                 let dz0 = Fbuf.get zb i -. Fbuf.get zb j in
                 let dz =
                   if dz0 > half then dz0 -. box
                   else if dz0 < -.half then dz0 +. box
                   else dz0
                 in
                 let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
                 if r2 <= c2 then begin
                   incr evals;
                   Fbuf.set pairbuf poff r2;
                   eval_into ~si
                     ~sj:(Array.unsafe_get species j)
                     pairbuf poff;
                   let e = Fbuf.get pairbuf (poff + 1)
                   and f_over_r = Fbuf.get pairbuf (poff + 2) in
                   if f_over_r <> 0.0 || e <> 0.0 then begin
                     epot2 := !epot2 +. e;
                     virial2 := !virial2 +. (f_over_r *. r2);
                     fx := !fx +. (f_over_r *. dx);
                     fy := !fy +. (f_over_r *. dy);
                     fz := !fz +. (f_over_r *. dz)
                   end
                 end
               end;
               jr := Array.unsafe_get next j
             done
           done
         done
       done
     end);
    Fbuf.set p.Particles.fx i !fx;
    Fbuf.set p.Particles.fy i !fy;
    Fbuf.set p.Particles.fz i !fz
  done;
  Fbuf.set partials (3 * k) !epot2;
  Fbuf.set partials ((3 * k) + 1) !virial2;
  (* exact below 2^53 — chunk pair counts are nowhere near that *)
  Fbuf.set partials ((3 * k) + 2) (float_of_int !evals)

let finish_forces t ~epot2 ~virial2 ~evals =
  let p = t.p in
  let epot = ref (0.5 *. epot2) in
  epot := !epot +. Bonded.bond_forces p t.bonds;
  t.pot_energy <- !epot;
  t.virial <- 0.5 *. virial2;
  t.pair_count <- evals / 2;
  Icoe_obs.Metrics.inc m_force_evals;
  Icoe_obs.Metrics.inc ~by:(float_of_int t.pair_count) m_pairs

(* Shared prologue: rebuild the cell list in place and hand back the
   per-chunk scratch slots (acquired before any pooled region — the
   arena is not thread-safe). *)
let force_scratch t =
  let p = t.p in
  let cl = Cells.build ?prev:t.cells p ~cutoff:t.potential.Potential.cutoff in
  t.cells <- Some cl;
  let nchunks = Pool.num_chunks ~lo:0 ~hi:p.Particles.n () in
  let partials = Prog.Scratch.get t.arena "nb-partials" (3 * nchunks) in
  let pairbuf = Prog.Scratch.get t.arena "nb-pairbuf" (3 * nchunks) in
  (cl, nchunks, partials, pairbuf)

(* Ascending-chunk reduction of the partial slots: the same association
   as the Array.fold_left over chunk results it replaces, so the sums
   are bit-identical for any pool size. *)
let reduce_partials partials nchunks =
  let epot2 = ref 0.0 and virial2 = ref 0.0 and evals = ref 0 in
  for k = 0 to nchunks - 1 do
    epot2 := !epot2 +. Fbuf.get partials (3 * k);
    virial2 := !virial2 +. Fbuf.get partials ((3 * k) + 1);
    evals := !evals + int_of_float (Fbuf.get partials ((3 * k) + 2))
  done;
  (!epot2, !virial2, !evals)

(** Recompute all forces; updates [pot_energy] and [virial].
    Particle-parallel on the {!Icoe_par.Pool}: per-particle full-shell
    accumulation gives disjoint writes, and the energy/virial partials
    are combined in chunk order, so the result is bit-identical to
    {!compute_forces_seq} for any pool size. Bonded terms stay serial
    (they are a small fraction of the work). *)
let compute_forces t =
  let cl, nchunks, partials, pairbuf = force_scratch t in
  Pool.parallel_for_chunks_i ~lo:0 ~hi:t.p.Particles.n (fun k lo hi ->
      nonbonded_chunk t cl partials pairbuf k lo hi);
  let epot2, virial2, evals = reduce_partials partials nchunks in
  finish_forces t ~epot2 ~virial2 ~evals

(** Serial reference path: the same per-particle algorithm and chunk
    layout run entirely in the calling domain. *)
let compute_forces_seq t =
  let cl, nchunks, partials, pairbuf = force_scratch t in
  let csize = Pool.default_chunk t.p.Particles.n in
  for k = 0 to nchunks - 1 do
    let lo = k * csize in
    nonbonded_chunk t cl partials pairbuf k lo
      (min t.p.Particles.n (lo + csize))
  done;
  let epot2, virial2, evals = reduce_partials partials nchunks in
  finish_forces t ~epot2 ~virial2 ~evals

(* SHAKE: iteratively project positions back onto the constraint manifold *)
let shake ?(iters = 50) ?(tol = 1e-8) t =
  let p = t.p in
  let px = p.Particles.x and py = p.Particles.y and pz = p.Particles.z in
  let rec loop k =
    if k >= iters then ()
    else begin
      let worst = ref 0.0 in
      List.iter
        (fun (i, j, d0) ->
          let dx = Particles.min_image p (Fbuf.get px i -. Fbuf.get px j) in
          let dy = Particles.min_image p (Fbuf.get py i -. Fbuf.get py j) in
          let dz = Particles.min_image p (Fbuf.get pz i -. Fbuf.get pz j) in
          let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
          let diff = r2 -. (d0 *. d0) in
          worst := max !worst (Float.abs diff /. (d0 *. d0));
          let mi = Fbuf.get p.Particles.mass i
          and mj = Fbuf.get p.Particles.mass j in
          (* first-order correction along the bond *)
          let g = diff /. (2.0 *. r2 *. ((1.0 /. mi) +. (1.0 /. mj))) in
          Fbuf.set px i (Fbuf.get px i -. (g *. dx /. mi));
          Fbuf.set py i (Fbuf.get py i -. (g *. dy /. mi));
          Fbuf.set pz i (Fbuf.get pz i -. (g *. dz /. mi));
          Fbuf.set px j (Fbuf.get px j +. (g *. dx /. mj));
          Fbuf.set py j (Fbuf.get py j +. (g *. dy /. mj));
          Fbuf.set pz j (Fbuf.get pz j +. (g *. dz /. mj)))
        t.constraints;
      if !worst > tol then loop (k + 1)
    end
  in
  if t.constraints <> [] then loop 0

(** One velocity-Verlet step (NVE when the thermostat is off).
    [langevin = Some (gamma, temp, rng)] adds the Langevin thermostat. *)
let step ?langevin t =
  let p = t.p in
  let dt = t.dt in
  let n = p.Particles.n in
  (* half kick + drift *)
  for i = 0 to n - 1 do
    let im = 0.5 *. dt /. Fbuf.get p.Particles.mass i in
    Fbuf.set p.Particles.vx i
      (Fbuf.get p.Particles.vx i +. (im *. Fbuf.get p.Particles.fx i));
    Fbuf.set p.Particles.vy i
      (Fbuf.get p.Particles.vy i +. (im *. Fbuf.get p.Particles.fy i));
    Fbuf.set p.Particles.vz i
      (Fbuf.get p.Particles.vz i +. (im *. Fbuf.get p.Particles.fz i));
    Fbuf.set p.Particles.x i
      (Fbuf.get p.Particles.x i +. (dt *. Fbuf.get p.Particles.vx i));
    Fbuf.set p.Particles.y i
      (Fbuf.get p.Particles.y i +. (dt *. Fbuf.get p.Particles.vy i));
    Fbuf.set p.Particles.z i
      (Fbuf.get p.Particles.z i +. (dt *. Fbuf.get p.Particles.vz i))
  done;
  shake t;
  Particles.wrap_all p;
  compute_forces t;
  (* second half kick *)
  for i = 0 to n - 1 do
    let im = 0.5 *. dt /. Fbuf.get p.Particles.mass i in
    Fbuf.set p.Particles.vx i
      (Fbuf.get p.Particles.vx i +. (im *. Fbuf.get p.Particles.fx i));
    Fbuf.set p.Particles.vy i
      (Fbuf.get p.Particles.vy i +. (im *. Fbuf.get p.Particles.fy i));
    Fbuf.set p.Particles.vz i
      (Fbuf.get p.Particles.vz i +. (im *. Fbuf.get p.Particles.fz i))
  done;
  (* Langevin thermostat: BBK-style friction + noise on the velocities *)
  (match langevin with
  | None -> ()
  | Some (gamma, temp, rng) ->
      let c1 = exp (-.gamma *. dt) in
      for i = 0 to n - 1 do
        let sigma =
          sqrt (temp /. Fbuf.get p.Particles.mass i *. (1.0 -. (c1 *. c1)))
        in
        Fbuf.set p.Particles.vx i
          ((c1 *. Fbuf.get p.Particles.vx i)
          +. (sigma *. Icoe_util.Rng.gaussian rng));
        Fbuf.set p.Particles.vy i
          ((c1 *. Fbuf.get p.Particles.vy i)
          +. (sigma *. Icoe_util.Rng.gaussian rng));
        Fbuf.set p.Particles.vz i
          ((c1 *. Fbuf.get p.Particles.vz i)
          +. (sigma *. Icoe_util.Rng.gaussian rng))
      done);
  t.steps <- t.steps + 1;
  Icoe_obs.Metrics.inc m_steps

let total_energy t = t.pot_energy +. Particles.kinetic_energy t.p

let run ?langevin t ~steps =
  if t.steps = 0 then compute_forces t;
  let e0 = total_energy t in
  for _ = 1 to steps do
    step ?langevin t
  done;
  let e1 = total_energy t in
  Icoe_obs.Metrics.set m_drift ((e1 -. e0) /. max (Float.abs e0) 1e-300)

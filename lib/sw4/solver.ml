(** Explicit second-order leapfrog time stepping with supergrid-style
    damping layers near the boundaries (SW4's treatment of artificial
    boundaries), plus receiver (seismogram) recording. *)

module Fbuf = Icoe_util.Fbuf

type receiver = { ri : int; rj : int; mutable trace : (float * float * float) list }

let m_steps =
  Icoe_obs.Metrics.counter ~help:"Leapfrog steps taken" "sw4_steps_total"

let m_updates =
  Icoe_obs.Metrics.counter ~help:"Interior grid-point updates"
    "sw4_gridpoint_updates_total"

let receiver ~i ~j = { ri = i; rj = j; trace = [] }

type t = {
  grid : Grid.t;
  dt : float;
  mutable time : float;
  mutable steps : int;
  ux : Fbuf.t;
  uy : Fbuf.t;
  ux_prev : Fbuf.t;
  uy_prev : Fbuf.t;
  ax : Fbuf.t;
  ay : Fbuf.t;
  scratch : Elastic.scratch;
  damping : Fbuf.t;  (** supergrid taper, 1 in the interior *)
  sources : Source.t list;
  receivers : receiver list;
}

(* supergrid damping profile: smooth taper from 1 (interior) toward
   [strength] < 1 within [width] points of each boundary *)
let damping_profile (g : Grid.t) ~width ~strength =
  let d = Fbuf.create (g.Grid.nx * g.Grid.ny) in
  Fbuf.fill d 1.0;
  for j = 0 to g.Grid.ny - 1 do
    for i = 0 to g.Grid.nx - 1 do
      let dist =
        min
          (min i (g.Grid.nx - 1 - i))
          (min j (g.Grid.ny - 1 - j))
      in
      if dist < width then begin
        let x = float_of_int dist /. float_of_int width in
        (* smooth ramp: strength at the wall, 1 inside *)
        let taper = strength +. ((1.0 -. strength) *. (x *. x *. (3.0 -. (2.0 *. x)))) in
        Fbuf.set d (Grid.idx g i j) taper
      end
    done
  done;
  d

let create ?(cfl = 0.5) ?(damping_width = 12) ?(damping_strength = 0.92)
    ?(sources = []) ?(receivers = []) (grid : Grid.t) =
  let n = grid.Grid.nx * grid.Grid.ny in
  {
    grid;
    dt = Grid.stable_dt ~cfl grid;
    time = 0.0;
    steps = 0;
    ux = Fbuf.create n;
    uy = Fbuf.create n;
    ux_prev = Fbuf.create n;
    uy_prev = Fbuf.create n;
    ax = Fbuf.create n;
    ay = Fbuf.create n;
    scratch = Elastic.make_scratch grid;
    damping = damping_profile grid ~width:damping_width ~strength:damping_strength;
    sources;
    receivers;
  }

(** One leapfrog step: u+ = 2u - u- + dt^2 a, with velocity damping folded
    in through the supergrid taper. *)
let step t =
  Elastic.acceleration t.grid t.scratch ~ux:t.ux ~uy:t.uy ~ax:t.ax ~ay:t.ay;
  List.iter (fun s -> Source.inject t.grid s ~t:t.time ~ax:t.ax ~ay:t.ay) t.sources;
  let dt2 = t.dt *. t.dt in
  let g = t.grid in
  let m = Elastic.margin in
  (* row-parallel on the pool: each grid point reads and writes only its
     own entries, so the update is bit-identical for any ICOE_DOMAINS *)
  Icoe_par.Pool.parallel_for_chunks ~chunk:Elastic.row_chunk ~lo:m
    ~hi:(g.Grid.ny - m)
    (fun jlo jhi ->
      for j = jlo to jhi - 1 do
        for i = m to g.Grid.nx - 1 - m do
          let k = Grid.idx g i j in
          let d = Fbuf.get t.damping k in
          let ux = Fbuf.get t.ux k and uy = Fbuf.get t.uy k in
          (* damped leapfrog: the taper bleeds energy out of the velocity *)
          let unew =
            ux +. (d *. (ux -. Fbuf.get t.ux_prev k)) +. (dt2 *. Fbuf.get t.ax k)
          in
          let vnew =
            uy +. (d *. (uy -. Fbuf.get t.uy_prev k)) +. (dt2 *. Fbuf.get t.ay k)
          in
          Fbuf.set t.ux_prev k ux;
          Fbuf.set t.uy_prev k uy;
          Fbuf.set t.ux k unew;
          Fbuf.set t.uy k vnew
        done
      done);
  t.time <- t.time +. t.dt;
  t.steps <- t.steps + 1;
  Icoe_obs.Metrics.inc m_steps;
  Icoe_obs.Metrics.inc
    ~by:(float_of_int ((g.Grid.nx - (2 * m)) * (g.Grid.ny - (2 * m))))
    m_updates;
  List.iter
    (fun r ->
      let k = Grid.idx g r.ri r.rj in
      r.trace <- (t.time, Fbuf.get t.ux k, Fbuf.get t.uy k) :: r.trace)
    t.receivers

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(* --- checkpoint/restart support (Icoe_fault.Checkpoint) --- *)

(** Full solver state at an instant: wave fields, leapfrog history,
    accelerations, clock and recorded seismograms. [scratch] is fully
    rewritten by every [Elastic.acceleration] call, so it is not part
    of the state. *)
type snapshot = {
  s_time : float;
  s_steps : int;
  s_ux : Fbuf.t;
  s_uy : Fbuf.t;
  s_ux_prev : Fbuf.t;
  s_uy_prev : Fbuf.t;
  s_ax : Fbuf.t;
  s_ay : Fbuf.t;
  s_traces : (float * float * float) list array;
}

let snapshot t =
  {
    s_time = t.time;
    s_steps = t.steps;
    s_ux = Fbuf.copy t.ux;
    s_uy = Fbuf.copy t.uy;
    s_ux_prev = Fbuf.copy t.ux_prev;
    s_uy_prev = Fbuf.copy t.uy_prev;
    s_ax = Fbuf.copy t.ax;
    s_ay = Fbuf.copy t.ay;
    s_traces = Array.of_list (List.map (fun r -> r.trace) t.receivers);
  }

let restore t s =
  t.time <- s.s_time;
  t.steps <- s.s_steps;
  Fbuf.blit ~src:s.s_ux ~dst:t.ux;
  Fbuf.blit ~src:s.s_uy ~dst:t.uy;
  Fbuf.blit ~src:s.s_ux_prev ~dst:t.ux_prev;
  Fbuf.blit ~src:s.s_uy_prev ~dst:t.uy_prev;
  Fbuf.blit ~src:s.s_ax ~dst:t.ax;
  Fbuf.blit ~src:s.s_ay ~dst:t.ay;
  List.iteri (fun i r -> r.trace <- s.s_traces.(i)) t.receivers

(** Discrete elastic energy proxy: kinetic + strain ~ sum of u and velocity
    squares (bounded for a stable scheme). *)
let energy_proxy t =
  let e = ref 0.0 in
  let n = Fbuf.length t.ux in
  for k = 0 to n - 1 do
    let vx = (Fbuf.get t.ux k -. Fbuf.get t.ux_prev k) /. t.dt in
    let vy = (Fbuf.get t.uy k -. Fbuf.get t.uy_prev k) /. t.dt in
    e := !e +. (0.5 *. t.grid.Grid.rho.(k) *. ((vx *. vx) +. (vy *. vy)))
  done;
  !e

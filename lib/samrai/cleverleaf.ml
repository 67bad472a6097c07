(** CleverLeaf: the 2D compressible-Euler mini-app used to assess the
    SAMRAI port (Table 5). Ideal gas, conservative finite volumes with a
    local Lax-Friedrichs (Rusanov) flux on the patch hierarchy's one level.

    Fields: rho, mx, my (momenta), e (total energy density). The solver is
    deliberately structured as per-patch kernels over interior boxes — the
    RAJA-backend shape of the real port — so one step has a well-defined
    flop/byte volume for device pricing. *)

let gamma_gas = 1.4

let fields = [ "rho"; "mx"; "my"; "e" ]

type t = {
  hier : Hierarchy.t;
  dx : float;
  dy : float;
  mutable time : float;
  mutable steps : int;
}

let create ~nx ~ny ~lx ~ly () =
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v && v > 0.0) then
        invalid_arg
          (Printf.sprintf
             "Cleverleaf.create: %s must be finite and positive, got %g"
             name v))
    [ ("lx", lx); ("ly", ly) ];
  let domain = Box.make ~ilo:0 ~jlo:0 ~ihi:(nx - 1) ~jhi:(ny - 1) in
  let hier = Hierarchy.create ~fields domain in
  {
    hier;
    dx = lx /. float_of_int nx;
    dy = ly /. float_of_int ny;
    time = 0.0;
    steps = 0;
  }

let m_steps =
  Icoe_obs.Metrics.counter ~help:"Hydro steps taken" "cleverleaf_steps_total"

let m_dt = Icoe_obs.Metrics.gauge ~help:"CFL timestep of the last step" "cleverleaf_dt"

let m_patch_updates =
  Icoe_obs.Metrics.counter ~help:"Patch updates (patches x steps)"
    "cleverleaf_patch_updates_total"

let pressure ~rho ~mx ~my ~e =
  let u = mx /. rho and v = my /. rho in
  (gamma_gas -. 1.0) *. (e -. (0.5 *. rho *. ((u *. u) +. (v *. v))))

(** Initialize with a primitive-variable function of cell-center coords. *)
let init t f =
  List.iter
    (fun p ->
      Patch.iter_interior p (fun ~i ~j ->
          let x = (float_of_int i +. 0.5) *. t.dx in
          let y = (float_of_int j +. 0.5) *. t.dy in
          let rho, u, v, pr = f ~x ~y in
          Patch.set p "rho" ~i ~j rho;
          Patch.set p "mx" ~i ~j (rho *. u);
          Patch.set p "my" ~i ~j (rho *. v);
          Patch.set p "e" ~i ~j
            ((pr /. (gamma_gas -. 1.0)) +. (0.5 *. rho *. ((u *. u) +. (v *. v))))))
    t.hier.Hierarchy.patches

(** Max signal speed over the level (for the CFL step). *)
let max_wave_speed t =
  let vmax = ref 1e-12 in
  List.iter
    (fun p ->
      Patch.iter_interior p (fun ~i ~j ->
          let rho = Patch.get p "rho" ~i ~j in
          let mx = Patch.get p "mx" ~i ~j in
          let my = Patch.get p "my" ~i ~j in
          let e = Patch.get p "e" ~i ~j in
          let pr = max 1e-12 (pressure ~rho ~mx ~my ~e) in
          let c = sqrt (gamma_gas *. pr /. rho) in
          let s =
            c +. max (Float.abs (mx /. rho)) (Float.abs (my /. rho))
          in
          if s > !vmax then vmax := s))
    t.hier.Hierarchy.patches;
  !vmax

(* Rusanov flux in direction (dxn, dyn) between states l and r. *)
let flux_rusanov (rl, mxl, myl, el) (rr, mxr, myr, er) ~xdir =
  let prl = pressure ~rho:rl ~mx:mxl ~my:myl ~e:el in
  let prr = pressure ~rho:rr ~mx:mxr ~my:myr ~e:er in
  let ul = if xdir then mxl /. rl else myl /. rl in
  let ur = if xdir then mxr /. rr else myr /. rr in
  let cl = sqrt (gamma_gas *. max 1e-12 prl /. rl) in
  let cr = sqrt (gamma_gas *. max 1e-12 prr /. rr) in
  let alpha = max (Float.abs ul +. cl) (Float.abs ur +. cr) in
  let f (r, mx, my, e) p u =
    if xdir then (r *. u, (mx *. u) +. p, my *. u, (e +. p) *. u)
    else (r *. u, mx *. u, (my *. u) +. p, (e +. p) *. u)
  in
  let f1r, f2r, f3r, f4r = f (rr, mxr, myr, er) prr ur in
  let f1l, f2l, f3l, f4l = f (rl, mxl, myl, el) prl ul in
  ( 0.5 *. (f1l +. f1r) -. (0.5 *. alpha *. (rr -. rl)),
    0.5 *. (f2l +. f2r) -. (0.5 *. alpha *. (mxr -. mxl)),
    0.5 *. (f3l +. f3r) -. (0.5 *. alpha *. (myr -. myl)),
    0.5 *. (f4l +. f4r) -. (0.5 *. alpha *. (er -. el)) )

(* the CFL number of every step, and the step cap of [run] *)
let cfl = 0.4
let max_steps = 100_000

(** One explicit step at CFL [cfl]; returns dt. *)
let step t =
  List.iter (fun f -> Hierarchy.fill_ghosts t.hier f) fields;
  let smax = max_wave_speed t in
  let dt = cfl *. min t.dx t.dy /. smax in
  let patches = t.hier.Hierarchy.patches in
  let updates =
    List.map
      (fun p ->
        let b = p.Patch.box in
        let upd = Array.make (4 * Box.size b) 0.0 in
        let gi = ref 0 in
        let state i j =
          ( Patch.get p "rho" ~i ~j,
            Patch.get p "mx" ~i ~j,
            Patch.get p "my" ~i ~j,
            Patch.get p "e" ~i ~j )
        in
        Patch.iter_interior p (fun ~i ~j ->
            let c = state i j in
            let fxm = flux_rusanov (state (i - 1) j) c ~xdir:true in
            let fxp = flux_rusanov c (state (i + 1) j) ~xdir:true in
            let fym = flux_rusanov (state i (j - 1)) c ~xdir:false in
            let fyp = flux_rusanov c (state i (j + 1)) ~xdir:false in
            let r, mx, my, e = c in
            let d (a1, a2, a3, a4) (b1, b2, b3, b4) h =
              ((a1 -. b1) /. h, (a2 -. b2) /. h, (a3 -. b3) /. h, (a4 -. b4) /. h)
            in
            let dx1, dx2, dx3, dx4 = d fxp fxm t.dx in
            let dy1, dy2, dy3, dy4 = d fyp fym t.dy in
            upd.(!gi) <- r -. (dt *. (dx1 +. dy1));
            upd.(!gi + 1) <- mx -. (dt *. (dx2 +. dy2));
            upd.(!gi + 2) <- my -. (dt *. (dx3 +. dy3));
            upd.(!gi + 3) <- e -. (dt *. (dx4 +. dy4));
            gi := !gi + 4);
        (p, upd))
      patches
  in
  List.iter
    (fun ((p : Patch.t), upd) ->
      let gi = ref 0 in
      Patch.iter_interior p (fun ~i ~j ->
          Patch.set p "rho" ~i ~j upd.(!gi);
          Patch.set p "mx" ~i ~j upd.(!gi + 1);
          Patch.set p "my" ~i ~j upd.(!gi + 2);
          Patch.set p "e" ~i ~j upd.(!gi + 3);
          gi := !gi + 4))
    updates;
  t.time <- t.time +. dt;
  t.steps <- t.steps + 1;
  Icoe_obs.Metrics.inc m_steps;
  Icoe_obs.Metrics.inc
    ~by:(float_of_int (List.length patches))
    m_patch_updates;
  Icoe_obs.Metrics.set m_dt dt;
  dt

(** Run until [tstop] (bounded step count). *)
let run t tstop =
  let n = ref 0 in
  while t.time < tstop && !n < max_steps do
    ignore (step t);
    incr n
  done

(** Total mass / x-momentum / energy over the level (conservation checks). *)
let totals t =
  let cell = t.dx *. t.dy in
  let acc = [| 0.0; 0.0; 0.0; 0.0 |] in
  List.iter
    (fun p ->
      Patch.iter_interior p (fun ~i ~j ->
          acc.(0) <- acc.(0) +. (cell *. Patch.get p "rho" ~i ~j);
          acc.(1) <- acc.(1) +. (cell *. Patch.get p "mx" ~i ~j);
          acc.(2) <- acc.(2) +. (cell *. Patch.get p "my" ~i ~j);
          acc.(3) <- acc.(3) +. (cell *. Patch.get p "e" ~i ~j)))
    t.hier.Hierarchy.patches;
  (acc.(0), acc.(1), acc.(2), acc.(3))

(** Sample density along y = const mid-line (Sod validation). *)
let density_slice t =
  let patches = t.hier.Hierarchy.patches in
  let jmid = (t.hier.Hierarchy.domain.Box.jhi + 1) / 2 in
  let nx = t.hier.Hierarchy.domain.Box.ihi + 1 in
  let out = Array.make nx nan in
  List.iter
    (fun p ->
      Patch.iter_interior p (fun ~i ~j -> if j = jmid then out.(i) <- Patch.get p "rho" ~i ~j))
    patches;
  out

(** Flop/byte volume of one step over [cells] cells: 4 Rusanov fluxes
    (~60 flops each) + update per cell; 4 fields read with 5-point support
    and written once. *)
let step_work ~cells =
  let c = float_of_int cells in
  Hwsim.Kernel.make ~name:"cleverleaf-step" ~launches:6
    ~flops:(c *. 280.0)
    ~bytes:(c *. 8.0 *. ((4.0 *. 5.0) +. 4.0))
    ()

(** Table 5 configuration model. The paper's two columns are different
    configurations of the same mini-app:

    - "P9 vs V100": one P9 socket (11 MPI ranks, the paper's layout — about
      half the socket's streaming efficiency) against one V100 running the
      RAJA CUDA backend with data resident in device memory;
    - "Full node": 2 sockets with NUMA-aware ranks against 4 V100s whose
      multi-GPU run pays CUDA Unified-Memory migration and halo exchange
      (calibrated multi-GPU efficiency, the dominant loss the SAMRAI team
      worked to reduce by keeping data device-resident).

    Returns simulated seconds for (cpu, gpu) under each column given the
    work of [steps] solver steps over [cells] cells. *)
let table5_times ~cells ~steps =
  let w = Hwsim.Kernel.scale (float_of_int steps) (step_work ~cells) in
  let time ~units ~unit_eff ~multi_eff (d : Hwsim.Device.t) =
    let eff = Hwsim.Roofline.eff ~compute:0.5 ~bandwidth:unit_eff () in
    Hwsim.Roofline.time ~eff d w /. (float_of_int units *. multi_eff)
  in
  let single_cpu = time ~units:1 ~unit_eff:0.375 ~multi_eff:1.0 Hwsim.Device.power9 in
  let single_gpu = time ~units:1 ~unit_eff:0.75 ~multi_eff:1.0 Hwsim.Device.v100 in
  let full_cpu = time ~units:2 ~unit_eff:0.53 ~multi_eff:1.0 Hwsim.Device.power9 in
  let full_gpu = time ~units:4 ~unit_eff:0.75 ~multi_eff:0.33 Hwsim.Device.v100 in
  ((full_cpu, full_gpu), (single_cpu, single_gpu))

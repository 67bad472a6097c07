(** The Cardioid monodomain solver: reaction-diffusion on a 2D tissue grid
    with operator splitting. Diffusion is the memory-bound 5-point stencil;
    reaction is the compute-bound per-cell ionic update.

    Hot state is SoA: the per-cell ionic state lives in one flat
    component-major {!Icoe_util.Fbuf} (plane [c] at [c*n + k]), the
    voltage field in another, and the reaction kernel evaluates the
    stack-program form of the ionic model ({!Ionic.compile_kernel})
    through one scratch slot drawn from a {!Prog.Scratch} arena —
    so a steady-state step allocates nothing. The arithmetic is
    unchanged from the boxed row-per-cell layout, so results are
    bit-identical to the retained closure-tree reference
    ({!reaction_step_ref}).

    The placement study of Sec 4.1 is first-class: [All_gpu] keeps both
    kernels device-side; [Split_cpu_gpu] runs diffusion on the CPU and
    reaction on the GPU, paying a full voltage-field transfer both ways
    every step — the configuration the team measured and rejected. *)

module Fbuf = Icoe_util.Fbuf

type placement = All_gpu | All_cpu | Split_cpu_gpu

let placement_name = function
  | All_gpu -> "all-gpu"
  | All_cpu -> "all-cpu"
  | Split_cpu_gpu -> "diffusion-cpu/reaction-gpu"

(* planes per cell in [state]: the n_state ionic variables plus the
   stimulus current *)
let n_planes = Ionic.n_state + 1

type t = {
  nx : int;
  ny : int;
  n : int;  (** nx * ny *)
  dx : float;
  sigma : float;  (** tissue conductivity (isotropic) *)
  dt : float;
  state : Fbuf.t;
      (** component-major ionic state, [n_planes] planes of [n]: plane
          [c] holds variable [c] for every cell, so the per-cell update
          streams each plane contiguously *)
  v : Fbuf.t;  (** voltage field, the diffusing variable *)
  scratch : Fbuf.t;
  kernel : Ionic.kernel;  (** stack-program derivative, the hot path *)
  deriv : float array -> float array;
      (** boxed closure-tree derivative, retained as the correctness
          oracle ({!reaction_step_ref}) *)
  arena : Prog.Scratch.t;  (** the reaction's scratch slot *)
}

let create ?(nx = 32) ?(ny = 32) ?(dt = 0.02) ?(variant = Ionic.Rational) () =
  if nx < 1 || ny < 1 then
    invalid_arg
      (Fmt.str "Cardioid.Monodomain.create: need nx, ny >= 1, got %dx%d" nx ny);
  if not (dt > 0.0 && Float.is_finite dt) then
    invalid_arg
      (Fmt.str
         "Cardioid.Monodomain.create: dt must be positive and finite, got %g" dt);
  let n = nx * ny in
  let state = Fbuf.create (n_planes * n) in
  let init = Ionic.initial_state () in
  for c = 0 to n_planes - 1 do
    for k = 0 to n - 1 do
      Fbuf.set state ((c * n) + k) init.(c)
    done
  done;
  let v = Fbuf.create n in
  Fbuf.fill v Ionic.v_rest;
  {
    nx;
    ny;
    n;
    dx = 0.02;
    sigma = 0.001;
    dt;
    state;
    v;
    scratch = Fbuf.create n;
    kernel = Ionic.compile_kernel variant;
    deriv = Ionic.compile_variant variant;
    arena = Prog.Scratch.create ();
  }

let idx t i j = i + (t.nx * j)

(** Stimulate a rectangular region (sets a strong inward current for the
    next [reaction_step] calls while active). *)
let stimulate t ~ilo ~ihi ~jlo ~jhi ~amplitude =
  let base = Ionic.istim_idx * t.n in
  for j = jlo to jhi do
    for i = ilo to ihi do
      Fbuf.set t.state (base + idx t i j) amplitude
    done
  done

let clear_stimulus t =
  let base = Ionic.istim_idx * t.n in
  for k = 0 to t.n - 1 do
    Fbuf.set t.state (base + k) 0.0
  done

(** Reaction half-step: per-cell ionic update, walked once over every
    cell in the calling domain. Per cell: gather the state planes into
    the env slot, evaluate the four derivative programs, apply the
    explicit-Euler update back into the planes. The one scratch slot
    ([n_planes] env, [n_state] out and [depth] stack words) comes from
    the arena, so a steady-state step allocates nothing. *)
let reaction_step t =
  let n = t.n in
  let progs = t.kernel.Ionic.progs in
  let env = Prog.Scratch.get t.arena "react-env" n_planes in
  let out = Prog.Scratch.get t.arena "react-out" Ionic.n_state in
  let stack = Prog.Scratch.get t.arena "react-stack" t.kernel.Ionic.depth in
  for c = 0 to n - 1 do
    Fbuf.set env 0 (Fbuf.get t.v c);
    for p = 1 to n_planes - 1 do
      Fbuf.set env p (Fbuf.get t.state ((p * n) + c))
    done;
    for d = 0 to Ionic.n_state - 1 do
      Melodee.exec_program_into
        (Array.unsafe_get progs d)
        ~env ~env_off:0 ~stack ~stack_off:0 ~out ~out_off:d
    done;
    for p = 0 to Ionic.n_state - 1 do
      Fbuf.set t.state ((p * n) + c)
        (Fbuf.get env p +. (t.dt *. Fbuf.get out p))
    done;
    Fbuf.set t.v c (Fbuf.get t.state c)
  done

let reaction_step_seq = reaction_step

(** Boxed closure-tree reference for the reaction half-step, retained
    from the row-per-cell layout: per-cell env arrays through
    {!Ionic.compile_variant}. Allocates per cell — correctness oracle
    only; the agreement tests pin {!reaction_step} to this bit-for-bit. *)
let reaction_step_ref t =
  let n = t.n in
  let env = Array.make n_planes 0.0 in
  for c = 0 to n - 1 do
    env.(Ionic.iv) <- Fbuf.get t.v c;
    for p = 1 to n_planes - 1 do
      env.(p) <- Fbuf.get t.state ((p * n) + c)
    done;
    let d = t.deriv env in
    for p = 0 to Ionic.n_state - 1 do
      Fbuf.set t.state ((p * n) + c) (env.(p) +. (t.dt *. d.(p)))
    done;
    Fbuf.set t.v c (Fbuf.get t.state c)
  done

let diffuse_rows t alpha jlo jhi =
  let v = t.v and scratch = t.scratch in
  let nx = t.nx and ny = t.ny in
  for j = jlo to jhi - 1 do
    for i = 0 to nx - 1 do
      let k = i + (nx * j) in
      let c = Fbuf.get v k in
      let vx0 = if i > 0 then Fbuf.get v (k - 1) else c in
      let vx1 = if i < nx - 1 then Fbuf.get v (k + 1) else c in
      let vy0 = if j > 0 then Fbuf.get v (k - nx) else c in
      let vy1 = if j < ny - 1 then Fbuf.get v (k + nx) else c in
      Fbuf.set scratch k (c +. (alpha *. (vx0 +. vx1 +. vy0 +. vy1 -. (4.0 *. c))))
    done
  done

(** Diffusion half-step: explicit 5-point stencil with no-flux walls,
    read from [v] into the scratch field, then copied back. *)
let diffusion_step t =
  let alpha = t.sigma *. t.dt /. (t.dx *. t.dx) in
  diffuse_rows t alpha 0 t.ny;
  Fbuf.blit ~src:t.scratch ~dst:t.v

let m_steps =
  Icoe_obs.Metrics.counter ~help:"Operator-split steps" "cardioid_steps_total"

let step t =
  reaction_step t;
  diffusion_step t;
  Icoe_obs.Metrics.inc m_steps

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(* --- checkpoint/restart support (Icoe_fault.Checkpoint) --- *)

(** Full tissue state: the ionic state planes plus the voltage field.
    [scratch] is rewritten by each diffusion half-step before being
    read, so it is not part of the state. *)
type snapshot = { c_state : Fbuf.t; c_v : Fbuf.t }

let snapshot t = { c_state = Fbuf.copy t.state; c_v = Fbuf.copy t.v }

let restore t s =
  Fbuf.blit ~src:s.c_state ~dst:t.state;
  Fbuf.blit ~src:s.c_v ~dst:t.v

(** Has the excitation wave reached cell (i, j)? (voltage above -20 mV) *)
let activated t ~i ~j = Fbuf.get t.v (idx t i j) > -20.0

(* --- placement cost model (Sec 4.1) --- *)

(** Simulated seconds per step for a tissue of [cells] cells under a
    placement, with the reaction variant's flop density. Reaction is
    compute-bound; diffusion is bandwidth-bound; the split placement adds a
    bidirectional voltage-field transfer every step. *)
let time_per_step ?(variant = Ionic.Rational) ~cells placement =
  let c = float_of_int cells in
  (* production ionic models evaluate several times more rate functions
     per state than the minimal 3-gate model; the density factor scales
     our kernel to the paper's "100-500 math calls" regime, where the
     reaction kernel is compute-bound. Coefficient loads hit the constant
     cache (warp-broadcast), so they cost one instruction slot each, not
     DRAM traffic. *)
  let math_density = 6.0 in
  let reaction_flops gpu =
    c *. math_density
    *. (Ionic.variant_flops ~expensive_flops:(if gpu then 50.0 else 100.0) variant
       +. float_of_int (Ionic.variant_loads variant))
  in
  (* DRAM traffic: the per-cell state in and out *)
  let reaction_bytes = c *. 8.0 *. float_of_int (2 * (Ionic.n_state + 1)) in
  let diffusion = Hwsim.Kernel.make ~name:"diffusion" ~flops:(c *. 7.0)
      ~bytes:(c *. 8.0 *. 7.0) () in
  let gpu = Hwsim.Device.v100 and cpu = Hwsim.Device.power9 in
  let gpu_eff = Prog.Policy.efficiency Prog.Policy.Cuda gpu in
  let cpu_eff = Prog.Policy.efficiency (Prog.Policy.Openmp 22) cpu in
  let t_reaction_gpu =
    Hwsim.Roofline.time ~eff:gpu_eff gpu
      (Hwsim.Kernel.make ~name:"reaction" ~flops:(reaction_flops true)
         ~bytes:reaction_bytes ())
  in
  let t_reaction_cpu =
    Hwsim.Roofline.time ~eff:cpu_eff cpu
      (Hwsim.Kernel.make ~name:"reaction" ~flops:(reaction_flops false)
         ~bytes:reaction_bytes ())
  in
  let t_diffusion_gpu = Hwsim.Roofline.time ~eff:gpu_eff gpu diffusion in
  let t_diffusion_cpu = Hwsim.Roofline.time ~eff:cpu_eff cpu diffusion in
  match placement with
  | All_gpu -> t_reaction_gpu +. t_diffusion_gpu
  | All_cpu -> t_reaction_cpu +. t_diffusion_cpu
  | Split_cpu_gpu ->
      (* reaction and diffusion could overlap, but the voltage field must
         cross the link twice per step *)
      let xfer =
        2.0 *. Hwsim.Link.transfer_time Hwsim.Link.nvlink2 ~bytes:(c *. 8.0)
      in
      max t_reaction_gpu t_diffusion_cpu +. xfer

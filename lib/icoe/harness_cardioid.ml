(** Sec 4.1: Cardioid reaction-kernel variants, the placement study, and
    a real monodomain tissue wave. *)

open Icoe_util

let cardioid () =
  let t = Table.create ~title:"Sec 4.1: Cardioid reaction-kernel variants"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "variant"; "flops/cell"; "coeff loads/cell"; "us/step (1M cells, V100)" ] in
  List.iter
    (fun v ->
      let tm =
        Cardioid.Monodomain.time_per_step ~variant:v ~cells:1_000_000
          Cardioid.Monodomain.All_gpu
      in
      Table.add_row t
        [ Cardioid.Ionic.variant_name v;
          Table.fcell ~prec:0 (Cardioid.Ionic.variant_flops v);
          string_of_int (Cardioid.Ionic.variant_loads v);
          Table.fcell ~prec:1 (tm *. 1e6) ])
    [ Cardioid.Ionic.Libm; Cardioid.Ionic.Rational; Cardioid.Ionic.Rational_folded ];
  let t2 = Table.create ~title:"placement study (1M cells, us/step)"
      ~aligns:[| Table.Left; Table.Right |] [ "placement"; "us/step" ] in
  List.iter
    (fun pl ->
      Table.add_row t2
        [ Cardioid.Monodomain.placement_name pl;
          Table.fcell ~prec:1
            (Cardioid.Monodomain.time_per_step ~cells:1_000_000 pl *. 1e6) ])
    [ Cardioid.Monodomain.All_cpu; Cardioid.Monodomain.Split_cpu_gpu;
      Cardioid.Monodomain.All_gpu ];
  (* real tissue wave *)
  let m = Cardioid.Monodomain.create ~nx:24 ~ny:8 ~variant:Cardioid.Ionic.Rational () in
  Cardioid.Monodomain.stimulate m ~ilo:0 ~ihi:2 ~jlo:0 ~jhi:7 ~amplitude:60.0;
  let far = ref (-1) in
  for s = 1 to 40 do
    Cardioid.Monodomain.run m ~steps:25;
    if s = 6 then Cardioid.Monodomain.clear_stimulus m;
    if !far < 0 && Cardioid.Monodomain.activated m ~i:23 ~j:4 then far := s * 25
  done;
  Harness.section "Sec 4.1 — Cardioid (paper: rational polys + compile-time constants; keep data on GPU)"
    (Fmt.str "%s%sreal monodomain wave reached the far edge after %d steps\n"
       (Table.render t) (Table.render t2) !far)

(* --- resilience: a whole-heart beat under a seeded fault plan ---

   Each step of a small real tissue stands in 1:1 for one step of a
   400M-cell whole-heart simulation at its all-GPU simulated per-step
   cost. Checkpoints write the distributed state to the node-local
   NVMe burst tier; the interval is Young/Daly from the plan's MTBF.
   The mid-run [clear_stimulus] is keyed to the step index, so replay
   after a restore is exactly deterministic. *)
let resilience_run (spec : Icoe_fault.Plan.spec) =
  let mk () =
    let m =
      Cardioid.Monodomain.create ~nx:24 ~ny:8 ~variant:Cardioid.Ionic.Rational ()
    in
    Cardioid.Monodomain.stimulate m ~ilo:0 ~ihi:2 ~jlo:0 ~jhi:7 ~amplitude:60.0;
    m
  in
  let steps = 400 and cells = 400_000_000 and nodes = 64 in
  let step_cost_s =
    Cardioid.Monodomain.time_per_step ~cells Cardioid.Monodomain.All_gpu
  in
  let ideal_s = float_of_int steps *. step_cost_s in
  let plan = Icoe_fault.Plan.for_run spec ~ideal_s ~nodes in
  let state_bytes =
    float_of_int cells *. 8.0 *. float_of_int (Cardioid.Ionic.n_state + 1)
  in
  (* per-node NVMe dump of the distributed state; restart re-reads it
     and re-launches *)
  let checkpoint_cost_s =
    state_bytes /. float_of_int nodes /. (Hwsim.Link.nvme.Hwsim.Link.bw_gbs *. 1e9)
  in
  let restart_cost_s = 2.0 *. checkpoint_cost_s in
  let interval =
    Icoe_fault.Checkpoint.young_daly_steps ~mtbf_s:(Icoe_fault.Plan.mtbf plan)
      ~checkpoint_cost_s ~step_cost_s
  in
  let drive m i =
    if i = 150 then Cardioid.Monodomain.clear_stimulus m;
    Cardioid.Monodomain.step m
  in
  let faulted = mk () in
  let report =
    Icoe_fault.Checkpoint.run ~plan ~step_cost_s ~checkpoint_cost_s
      ~restart_cost_s ~interval ~steps
      ~snapshot:(fun () -> Cardioid.Monodomain.snapshot faulted)
      ~restore:(Cardioid.Monodomain.restore faulted)
      ~step:(drive faulted) ()
  in
  let clean = mk () in
  for i = 0 to steps - 1 do
    drive clean i
  done;
  let identical =
    faulted.Cardioid.Monodomain.v = clean.Cardioid.Monodomain.v
    && faulted.Cardioid.Monodomain.state = clean.Cardioid.Monodomain.state
  in
  (plan, interval, report, identical)

let resilience_section spec =
  let plan, interval, rep, identical = resilience_run spec in
  Harness.record_recovery "cardioid" rep ~identical;
  Harness.section
    "Resilience — whole-heart run under a seeded fault plan"
    (Fmt.str
       "%a\nYoung/Daly checkpoint interval: %d steps (plan MTBF %.4g s)\n\
        %a\nrecovered state identical to the fault-free run: %b\n"
       Icoe_fault.Plan.pp_summary plan interval (Icoe_fault.Plan.mtbf plan)
       Icoe_fault.Checkpoint.pp_report rep identical)

let cardioid_with_faults () =
  let base = cardioid () in
  match Icoe_fault.Context.current () with
  | None -> base
  | Some spec -> base ^ resilience_section spec

let harnesses =
  [
    Harness.make ~id:"cardioid" ~description:"Cardioid DSL + placement (Sec 4.1)"
      ~tags:[ "study"; "activity:cardioid" ]
      cardioid_with_faults;
  ]

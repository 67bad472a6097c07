(** Sec 4.9: SW4 kernel variants, node throughput, and the production
    Hayward campaign. *)

open Icoe_util

(* Comm/compute overlap of the production campaign: one step's
   interior/halo/boundary items charged through the stream scheduler.
   Emitted (and the overlap_efficiency gauge recorded) only when the
   scheduler overlaps, so ICOE_OVERLAP=0 output is untouched. *)
let overlap_section () =
  if not (Hwsim.Sched.overlap_enabled ()) then ""
  else begin
    let clock = Hwsim.Clock.create () in
    let tr = Hwsim.Trace.create ~root:"sw4-overlap" clock in
    let m =
      Sw4.Scenario.production_step_model ~trace:tr Hwsim.Node.sierra ~nodes:256
        ~grid_points:26.0e9
    in
    Harness.record_trace "sw4-overlap" tr;
    let eff =
      Harness.record_overlap "sw4" ~serial_s:m.Sw4.Scenario.serial_s
        ~overlapped_s:m.Sw4.Scenario.overlapped_s
    in
    let blame = Icoe_obs.Prof.analyze ~overlap:true m.Sw4.Scenario.dag in
    Harness.record_blame "sw4" blame;
    (* the stencil, not the halo, is what a step waits on *)
    let phases = blame.Icoe_obs.Prof.phase_blame in
    let interior =
      List.fold_left
        (fun acc (b : Icoe_obs.Prof.blame) ->
          if b.key = "interior" then b.seconds else acc)
        neg_infinity phases
    in
    Harness.record_check "sw4/blame/interior-dominates"
      (List.for_all (fun (b : Icoe_obs.Prof.blame) -> b.seconds <= interior) phases);
    Harness.section
      "Overlap — halo exchange hidden under interior compute (per step, 256 \
       Sierra nodes)"
      (Fmt.str
         "serial %.2f ms (point %.2f + halo %.2f); overlapped %.2f ms — only \
          the boundary shell (%.1f%% of points) waits for the halo\n\
          overlap efficiency: %.3f\n"
         (m.Sw4.Scenario.serial_s *. 1e3)
         (m.Sw4.Scenario.point_s *. 1e3)
         (m.Sw4.Scenario.halo_s *. 1e3)
         (m.Sw4.Scenario.overlapped_s *. 1e3)
         (100.0 *. m.Sw4.Scenario.boundary_frac)
         eff)
    ^ Harness.section
        "Critical-path blame — what the per-step makespan is waiting on"
        (Icoe_obs.Prof.report_section blame)
  end

let sw4 () =
  let res = Sw4.Scenario.run_hayward ~nx:120 ~ny:72 ~h:100.0 ~steps:300 () in
  let g = Sw4.Grid.create ~nx:512 ~ny:512 ~h:100.0 in
  let t = Table.create ~title:"Sec 4.9: sw4lite kernel variants (512^2 grid, s/step)"
      ~aligns:[| Table.Left; Table.Right |]
      [ "variant"; "time/step (ms)" ] in
  List.iter
    (fun v ->
      Table.add_row t
        [ Sw4.Scenario.variant_name v;
          Table.fcell ~prec:3 (Sw4.Scenario.variant_time_per_step g v *. 1e3) ])
    [ Sw4.Scenario.Cpu_openmp; Sw4.Scenario.Naive_cuda; Sw4.Scenario.Shared_cuda;
      Sw4.Scenario.Raja ];
  let sierra = Sw4.Scenario.node_throughput Hwsim.Node.witherspoon ~points:4_000_000 in
  let cori = Sw4.Scenario.node_throughput Hwsim.Node.cori_ii ~points:4_000_000 in
  (* the production Hayward campaign: 26B points, ~10 h on 256 Sierra nodes *)
  let gp = 26.0e9 and steps = 25_000 in
  let sierra_h =
    Sw4.Scenario.production_run_hours Hwsim.Node.sierra ~nodes:256 ~grid_points:gp ~steps
  in
  let cori_nodes =
    Sw4.Scenario.nodes_for_deadline Hwsim.Node.cori ~grid_points:gp ~steps ~hours:sierra_h
  in
  Harness.section "Sec 4.9 — SW4 seismic (paper: shared-mem ~2x, RAJA ~0.7x CUDA, 14X node throughput vs Cori)"
    (Fmt.str
       "%sSierra/Cori node throughput ratio: %.1fx\n\
        production Hayward campaign (26B points): %.1f h on 256 Sierra nodes (paper ~10 h);\n\
        Cori-II needs %d nodes (%.1fx more) for the same wall clock\n\
        real Hayward-like run: basin amplification %b over %d grid points\n"
       (Table.render t) (sierra /. cori) sierra_h cori_nodes
       (float_of_int cori_nodes /. 256.0)
       res.Sw4.Scenario.basin_amplified res.Sw4.Scenario.grid_points)
  ^ overlap_section ()

(* --- resilience: the production campaign under a seeded fault plan ---

   Each step of a small real solver stands in 1:1 for one step of the
   26B-point Hayward campaign, at the campaign's simulated per-step
   cost on 256 Sierra nodes. A failure rolls the real solver back to
   its last snapshot, so the faulted trajectory must reconverge to the
   bit-exact fault-free state — which is checked and reported. *)
let resilience_run (spec : Icoe_fault.Plan.spec) =
  let mk () =
    let g = Sw4.Grid.create ~nx:48 ~ny:40 ~h:100.0 in
    Sw4.Grid.homogeneous g ~rho:2600.0 ~vp:5000.0 ~vs:2900.0;
    let src =
      Sw4.Source.point_force ~i:24 ~j:20 ~fx:0.0 ~fy:1e9
        ~stf:(Sw4.Source.ricker ~f0:2.0 ~t0:0.6)
    in
    Sw4.Solver.create ~sources:[ src ] g
  in
  let steps = 400 in
  let step_cost_s =
    Sw4.Scenario.production_run_hours Hwsim.Node.sierra ~nodes:256
      ~grid_points:26.0e9 ~steps:25_000
    *. 3600.0 /. 25_000.0
  in
  let ideal_s = float_of_int steps *. step_cost_s in
  let plan = Icoe_fault.Plan.for_run spec ~ideal_s ~nodes:256 in
  (* burst-tier dump of the campaign state, and a partition restart *)
  let checkpoint_cost_s = 15.0 and restart_cost_s = 10.0 in
  let interval =
    Icoe_fault.Checkpoint.young_daly_steps ~mtbf_s:(Icoe_fault.Plan.mtbf plan)
      ~checkpoint_cost_s ~step_cost_s
  in
  let faulted = mk () in
  let report =
    Icoe_fault.Checkpoint.run ~plan ~step_cost_s ~checkpoint_cost_s
      ~restart_cost_s ~interval ~steps
      ~snapshot:(fun () -> Sw4.Solver.snapshot faulted)
      ~restore:(Sw4.Solver.restore faulted)
      ~step:(fun _ -> Sw4.Solver.step faulted)
      ()
  in
  let clean = mk () in
  for _ = 1 to steps do
    Sw4.Solver.step clean
  done;
  let identical =
    faulted.Sw4.Solver.ux = clean.Sw4.Solver.ux
    && faulted.Sw4.Solver.uy = clean.Sw4.Solver.uy
    && faulted.Sw4.Solver.steps = clean.Sw4.Solver.steps
  in
  (plan, interval, report, identical)

let resilience_section spec =
  let plan, interval, rep, identical = resilience_run spec in
  Harness.record_recovery "sw4" rep ~identical;
  Harness.section
    "Resilience — Hayward campaign under a seeded fault plan"
    (Fmt.str
       "%a\nYoung/Daly checkpoint interval: %d steps (plan MTBF %.4g s, \
        checkpoint %.4g s)\n%a\nrecovered state identical to the \
        fault-free run: %b\n"
       Icoe_fault.Plan.pp_summary plan interval
       (Icoe_fault.Plan.mtbf plan) 15.0 Icoe_fault.Checkpoint.pp_report rep
       identical)

let sw4_with_faults () =
  let base = sw4 () in
  match Icoe_fault.Context.current () with
  | None -> base
  | Some spec -> base ^ resilience_section spec

let harness =
  Harness.make ~id:"sw4" ~description:"SW4 variants and node throughput (Sec 4.9)"
    ~tags:[ "study"; "activity:sw4" ]
    sw4_with_faults

(** Sec 4.6: ddcMD vs GROMACS on the Martini membrane workload. *)

open Icoe_util

(* The ddcMD launch/kernel/halo pipeline through the stream scheduler,
   on the 4-GPU configuration (the one with both launch and halo traffic
   to hide). Emitted only when the scheduler overlaps, so ICOE_OVERLAP=0
   output is untouched. *)
let overlap_section () =
  if not (Hwsim.Sched.overlap_enabled ()) then ""
  else begin
    let clock = Hwsim.Clock.create () in
    let tr = Hwsim.Trace.create ~root:"md-overlap" clock in
    let m = Ddcmd.Perf.ddcmd_step_model ~trace:tr Ddcmd.Perf.Four_gpu in
    Harness.record_trace "md-overlap" tr;
    let eff =
      Harness.record_overlap "md" ~serial_s:m.Ddcmd.Perf.serial_s
        ~overlapped_s:m.Ddcmd.Perf.overlapped_s
    in
    let blame = Icoe_obs.Prof.analyze ~overlap:true m.Ddcmd.Perf.dag in
    Harness.record_blame "md" blame;
    Harness.section
      "Overlap — launches and inter-GPU halo hidden under the kernel pipeline \
       (4-GPU step)"
      (Fmt.str
         "serial %.3f ms (%d kernel launches exposed); overlapped %.3f ms \
          (one launch exposed, halo under the back half)\n\
          overlap efficiency: %.3f\n"
         (m.Ddcmd.Perf.serial_s *. 1e3)
         Ddcmd.Perf.kernel_count
         (m.Ddcmd.Perf.overlapped_s *. 1e3)
         eff)
    ^ Harness.section
        "Critical-path blame — what the per-step makespan is waiting on"
        (Icoe_obs.Prof.report_section blame)
  end

let md () =
  (* real MD: small Martini-like patch with thermostat and constraints *)
  let rng = Rng.create 31 in
  let p = Ddcmd.Particles.create ~n:125 ~box:6.5 in
  Ddcmd.Particles.lattice_init p;
  Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
  let e = Ddcmd.Engine.create ~dt:0.004 ~potential:(Ddcmd.Potential.lennard_jones ()) p in
  Ddcmd.Engine.run e ~steps:50;
  let e0 = Ddcmd.Engine.total_energy e in
  Ddcmd.Engine.run e ~steps:300;
  let drift = Float.abs (Ddcmd.Engine.total_energy e -. e0) /. Float.abs e0 in
  let t = Table.create ~title:"Sec 4.6: ddcMD vs GROMACS, Martini membrane (ms/step)"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Left |]
      [ "configuration"; "ddcMD"; "GROMACS"; "ratio"; "paper" ] in
  List.iter2
    (fun s paper ->
      let d, g = Ddcmd.Perf.step_times s in
      Table.add_row t
        [ Ddcmd.Perf.scenario_name s; Table.fcell ~prec:2 (d *. 1e3);
          Table.fcell ~prec:2 (g *. 1e3); Table.fcell ~prec:2 (g /. d); paper ])
    [ Ddcmd.Perf.One_gpu; Ddcmd.Perf.Four_gpu; Ddcmd.Perf.Mummi ]
    [ "2.31 vs 2.88"; "1.3x"; "2.3x" ];
  Harness.section "Sec 4.6 — MD performance"
    (Fmt.str "%sreal NVE run: 350 steps, relative energy drift %.1e\n"
       (Table.render t) drift)
  ^ overlap_section ()

let harnesses =
  [
    Harness.make ~id:"md" ~description:"ddcMD vs GROMACS (Sec 4.6)"
      ~tags:[ "study"; "activity:ddcmd" ]
      md;
  ]

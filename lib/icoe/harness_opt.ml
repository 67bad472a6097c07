(** Sec 4.7: the Opt batch scheduler and topology optimization. *)

open Icoe_util

let opt_sched () =
  let rng = Rng.create 121 in
  let jobs = Opt.Scheduler.batch_workload ~rng ~n:400 () in
  let t = Table.create ~title:"Sec 4.7: batch workload on 16 GPUs"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "policy"; "utilization"; "mean wait"; "max wait" ] in
  List.iter
    (fun pol ->
      let m = Opt.Scheduler.simulate ~gpus:16 pol jobs in
      Table.add_row t
        [ Opt.Scheduler.policy_name pol; Table.fcell ~prec:3 m.Opt.Scheduler.utilization;
          Table.fcell ~prec:1 m.Opt.Scheduler.mean_wait;
          Table.fcell ~prec:1 m.Opt.Scheduler.max_wait ])
    [ Opt.Scheduler.Fcfs; Opt.Scheduler.Fcfs_backfill; Opt.Scheduler.Sjf;
      Opt.Scheduler.Sjf_quota 0.5 ];
  (* throttling *)
  let mean_duration = exp (1.0 +. (0.6 *. 0.6 /. 2.0)) in
  let cap = Opt.Scheduler.capacity ~gpus:8 ~mean_duration in
  let wait rate =
    let js = Opt.Scheduler.poisson_workload ~rng ~rate ~horizon:2000.0 () in
    (Opt.Scheduler.simulate ~gpus:8 Opt.Scheduler.Sjf js).Opt.Scheduler.mean_wait
  in
  (* topology optimization *)
  let design = Opt.Topopt.create ~nx:20 ~ny:16 () in
  ignore (Opt.Topopt.optimize ~iters:40 design);
  let p100_tex = Opt.Topopt.apply_time ~cells:1_000_000 Hwsim.Device.p100 ~textures:true in
  let p100_no = Opt.Topopt.apply_time ~cells:1_000_000 Hwsim.Device.p100 ~textures:false in
  let v100_tex = Opt.Topopt.apply_time ~cells:1_000_000 Hwsim.Device.v100 ~textures:true in
  let v100_no = Opt.Topopt.apply_time ~cells:1_000_000 Hwsim.Device.v100 ~textures:false in
  Harness.section "Sec 4.7 — Opt scheduler + topology optimization"
    (Fmt.str
       "%smean wait at 130%% of capacity: %.1f s; throttled to 80%%: %.1f s (throttle below capacity)\n\
        topopt: %d CG iterations total, final volume %.2f, compliance %.0f\n\
        texture cache: P100 %.2f -> %.2f ms (matters); V100 %.2f -> %.2f ms (moot on Volta)\n"
       (Table.render t) (wait (1.3 *. cap)) (wait (0.8 *. cap))
       design.Opt.Topopt.cg_iters_total (Opt.Topopt.volume design)
       design.Opt.Topopt.compliance
       (p100_no *. 1e3) (p100_tex *. 1e3) (v100_no *. 1e3) (v100_tex *. 1e3))

let harness =
  Harness.make ~id:"opt" ~description:"Opt scheduler + topology optimization (Sec 4.7)"
    ~tags:[ "study"; "activity:opt" ]
    opt_sched

(** The fault model itself as a study: a seeded bring-up fault plan,
    retry/backoff semantics, a Sparkle analysis job run through the
    fault-aware cluster wrapper, and the Young/Daly checkpoint-interval
    surface. The early-access bring-up the paper describes was
    dominated by exactly these failure classes. *)

open Icoe_util
module F = Icoe_fault

let spec_in_effect () =
  match F.Context.current () with
  | Some s -> s
  | None -> F.Plan.spec 42

(* A 16-node bring-up partition, hazard rates scaled so a minute-long
   analysis job sees several events of every class. *)
let bringup_plan (spec : F.Plan.spec) =
  F.Plan.generate ~seed:spec.F.Plan.spec_seed
    {
      F.Plan.nodes = 16;
      horizon_s = 600.0;
      node_mtbf_s = 16.0 *. 12.0 /. spec.F.Plan.intensity;
      node_downtime_s = 3.0;
      link_mtbf_s = 40.0;
      link_degraded_s = 12.0;
      straggler_mtbf_s = 35.0;
      straggler_s = 8.0;
      kernel_fault_mtbf_s = 25.0;
    }

let sparkle_job charge_compute charge_shuffle charge_aggregate =
  for _ = 1 to 30 do
    charge_compute ~flops:2e12;
    charge_shuffle ~bytes:1.5e9;
    charge_aggregate ~bytes_per_node:2e7
  done

let resilience () =
  let spec = spec_in_effect () in
  let plan = bringup_plan spec in
  (* clean reference job *)
  let config = Sparkle.Cluster.optimized_config ~nodes:16 () in
  let clean = Sparkle.Cluster.create config in
  sparkle_job
    (Sparkle.Cluster.charge_compute clean)
    (Sparkle.Cluster.charge_shuffle clean)
    (Sparkle.Cluster.charge_aggregate clean);
  (* the same job through the fault-aware wrapper *)
  let fc = F.Fcluster.create plan config in
  sparkle_job
    (F.Fcluster.charge_compute fc)
    (F.Fcluster.charge_shuffle fc)
    (F.Fcluster.charge_aggregate fc);
  Harness.record_trace "resilience"
    (Sparkle.Cluster.trace (F.Fcluster.cluster fc));
  let stats = F.Fcluster.stats fc in
  let clean_s = Sparkle.Cluster.elapsed clean in
  let faulted_s = F.Fcluster.elapsed fc in
  (* deterministic backoff schedule for this seed *)
  let rng = Icoe_util.Rng.create spec.F.Plan.spec_seed in
  let backoffs =
    List.map
      (fun attempt ->
        Fmt.str "%.3f" (F.Retry.backoff_s F.Retry.default_policy ~rng ~attempt))
      [ 1; 2; 3 ]
  in
  (* Young/Daly interval surface *)
  let yd = Table.create ~title:"Young/Daly optimal checkpoint period (s)"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "MTBF \\ ckpt cost"; "5 s"; "15 s"; "60 s" ] in
  List.iter
    (fun mtbf ->
      Table.add_row yd
        (Fmt.str "%.0f s" mtbf
        :: List.map
             (fun delta ->
               Table.fcell ~prec:1
                 (F.Checkpoint.young_daly_s ~mtbf_s:mtbf
                    ~checkpoint_cost_s:delta))
             [ 5.0; 15.0; 60.0 ]))
    [ 300.0; 1800.0; 7200.0 ];
  Harness.section
    "Resilience — fault plans, retry/backoff, degraded collectives"
    (Fmt.str
       "%a\n\
        analysis job on the bring-up partition: clean %.2f s -> faulted \
        %.2f s (inflation %.3fx)\n\
        collectives struck %d, recovered %d (re-executions %d, gave up \
        %d)\n\
        retry backoff schedule (seed %d): %s s\n\
        %s"
       F.Plan.pp_summary plan clean_s faulted_s
       (faulted_s /. clean_s)
       stats.F.Fcluster.injected stats.F.Fcluster.recovered
       stats.F.Fcluster.retries stats.F.Fcluster.gave_up
       spec.F.Plan.spec_seed
       (String.concat ", " backoffs)
       (Table.render yd))

let harness =
  Harness.make ~id:"resilience"
    ~description:"Fault injection, retry and checkpointing (bring-up model)"
    ~tags:[ "study"; "activity:fault"; "traced" ]
    resilience

(** The deep-learning activity (Sec 4.5): Table 3 video ensembles, Fig 3
    LBANN model-parallel scaling, and the KAVG vs ASGD study. *)

open Icoe_util

let table3 () =
  let rng = Rng.create 11 in
  let easy = Dlearn.Videonet.table3 ~rng Dlearn.Videonet.Easy in
  let hard = Dlearn.Videonet.table3 ~rng Dlearn.Videonet.Hard in
  let paper =
    [ (85.06, 61.44); (84.70, 56.34); (88.32, 58.69); (92.78, 75.16);
      (93.47, 77.45); (92.60, 81.24); (93.18, 80.33); (93.40, 66.40) ]
  in
  let t = Table.create ~title:"Table 3: validation accuracy (%), UCF101-like / HMDB51-like"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "Combination"; "easy"; "easy(paper)"; "hard"; "hard(paper)" ] in
  List.iteri
    (fun i ((c, a_easy), (_, a_hard)) ->
      let pe, ph = List.nth paper i in
      Table.add_row t
        [ Dlearn.Videonet.combiner_name c;
          Table.fcell ~prec:1 (100.0 *. a_easy); Table.fcell ~prec:1 pe;
          Table.fcell ~prec:1 (100.0 *. a_hard); Table.fcell ~prec:1 ph ])
    (List.combine easy hard);
  Harness.section "Table 3 — three-stream video action recognition" (Table.render t)

let fig3 () =
  let t = Table.create ~title:"Fig 3: LBANN scaling (V100 GPUs)"
      ~aligns:[| Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "GPUs/sample"; "strong speedup vs 2"; "paper"; "weak eff to 2048" ] in
  List.iter2
    (fun g paper ->
      Table.add_row t
        [ string_of_int g;
          Table.fcell ~prec:2 (Dlearn.Lbann.strong_scaling_speedup g);
          paper;
          Table.fcell ~prec:2
            (Dlearn.Lbann.weak_scaling_efficiency ~g ~total0:(4 * g) ~total1:2048) ])
    [ 2; 4; 8; 16 ] [ "1.00"; "~2 (near-perfect)"; "2.8"; "3.4" ];
  Harness.section "Fig 3 — LBANN up to 2048 GPUs"
    (Fmt.str "%smodel needs %.0f GB > 16 GB/GPU: minimum %d GPUs per sample\n"
       (Table.render t) Dlearn.Lbann.model_memory_gb Dlearn.Lbann.min_gpus_per_sample)

(* KAVG's per-round wall clock through the stream scheduler: each
   layer's allreduce bucket on the "net" stream under backprop. Emitted
   only when the scheduler overlaps, so ICOE_OVERLAP=0 output is
   untouched. *)
let overlap_section sizes =
  if not (Hwsim.Sched.overlap_enabled ()) then ""
  else begin
    let clock = Hwsim.Clock.create () in
    let tr = Hwsim.Trace.create ~root:"kavg-overlap" clock in
    let m =
      Dlearn.Distributed.kavg_round_model ~trace:tr ~learners:8 ~k:8 ~batch:16
        sizes
    in
    Harness.record_trace "kavg-overlap" tr;
    let eff =
      Harness.record_overlap "kavg"
        ~serial_s:m.Dlearn.Distributed.serial_round_s
        ~overlapped_s:m.Dlearn.Distributed.overlapped_round_s
    in
    let blame = Icoe_obs.Prof.analyze ~overlap:true m.Dlearn.Distributed.dag in
    Harness.record_blame "kavg" blame;
    Harness.section
      "Overlap — layer-bucketed weight-average allreduce under backprop \
       (per KAVG round)"
      (Fmt.str
         "serial %.4g s; overlapped %.4g s (%d layer buckets issued as \
          gradients complete)\noverlap efficiency: %.3f\n"
         m.Dlearn.Distributed.serial_round_s
         m.Dlearn.Distributed.overlapped_round_s
         (List.length (Dlearn.Distributed.layer_params sizes))
         eff)
    ^ Harness.section
        "Critical-path blame — what the per-round makespan is waiting on"
        (Icoe_obs.Prof.report_section blame)
  end

let kavg () =
  let sizes = [| 12; 16; 4 |] in
  let task () = Dlearn.Distributed.make_task ~rng:(Rng.create 55) ~spread:1.6 () in
  (* the practical regime the paper describes: at a learning rate chosen
     for fast convergence, stale ASGD gradients destabilize the descent *)
  let asgd =
    Dlearn.Distributed.asgd ~rng:(Rng.create 56) ~learners:8 ~steps:800 ~batch:16
      ~lr:0.2 ~staleness:16 sizes (task ())
  in
  let kv =
    Dlearn.Distributed.kavg ~rng:(Rng.create 56) ~learners:8 ~rounds:100 ~k:8
      ~batch:16 ~lr:0.2 sizes (task ())
  in
  let sync =
    Dlearn.Distributed.sync_sgd ~rng:(Rng.create 56) ~learners:8 ~steps:800
      ~batch:16 ~lr:0.2 sizes (task ())
  in
  let t = Table.create ~title:"Sec 4.5: distributed training, equal gradient budget"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "algorithm"; "final loss"; "accuracy"; "sim time (s)" ] in
  List.iter
    (fun (name, (r : Dlearn.Distributed.run)) ->
      Table.add_row t
        [ name; Table.fcell r.Dlearn.Distributed.final_loss;
          Table.fcell ~prec:3 r.Dlearn.Distributed.final_accuracy;
          Table.fcell ~prec:4 r.Dlearn.Distributed.simulated_seconds ])
    [ ("sync SGD", sync); ("ASGD (staleness 8)", asgd); ("KAVG (K=8)", kv) ];
  Harness.section "Sec 4.5 — KAVG vs ASGD (paper: KAVG scales better; optimal K > 1)"
    (Table.render t)
  ^ overlap_section sizes

(* the registry entries, each named after the run function it wraps *)
let table3 =
  Harness.make ~id:"table3" ~description:"Three-stream video accuracies"
    ~tags:[ "table"; "activity:dlearn" ]
    table3

let fig3 =
  Harness.make ~id:"fig3" ~description:"LBANN scaling to 2048 GPUs"
    ~tags:[ "figure"; "activity:dlearn" ]
    fig3

let kavg =
  Harness.make ~id:"kavg" ~description:"KAVG vs ASGD (Sec 4.5)"
    ~tags:[ "study"; "activity:dlearn" ]
    kavg

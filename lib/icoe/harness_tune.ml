(** Heterogeneous work-partitioning auto-tuner study:
    {!Opt.Autotune} applied to the paper's three overlap-wired step
    models — the SW4 production stencil, the ddcMD force pipeline and
    the KAVG backprop round — on a paper-era machine and both exascale
    machines. Tuned vs paper-default placements, exhaustive vs annealed
    search, all in simulated time.

    Acceptance truths (printed, and recorded as checks): the tuned
    makespan is never worse than the paper default on any machine x
    kernel, and the annealer agrees exactly with the exhaustive sweep
    whenever its budget covers the lattice. *)

open Icoe_util

type row = {
  kernel : string;
  machine : string;
  default_s : float;
  tuned_s : float;
  split : float;  (** tuned accelerator share *)
  comm : string;  (** tuned communication placement *)
  speedup : float;  (** [default_s /. tuned_s] *)
  evaluations : int;
  mode : string;
}

let machines =
  [ Hwsim.Node.sierra; Hwsim.Node.frontier; Hwsim.Node.grace_hopper ]

let mname (m : Hwsim.Node.machine) = m.Hwsim.Node.node.Hwsim.Node.name
let kernels = [ "sw4"; "md"; "kavg" ]
let kavg_sizes = [| 256; 512; 128; 16 |]

(* One objective per kernel x machine: rebuild the step-model DAG at
   the candidate's split/placement and return its simulated makespan.
   Scales match the paper studies: the 26B-point campaign on 256 nodes,
   the MuMMI membrane patch, the 512-learner KAVG round. [overlap] is
   forced on — the tuner searches overlapped schedules regardless of
   ICOE_OVERLAP, keeping the report byte-identical either way. *)
let objective kernel (m : Hwsim.Node.machine) : Opt.Autotune.objective =
 fun (c : Opt.Autotune.candidate) ->
  let split = c.Opt.Autotune.split and comm = c.Opt.Autotune.comm in
  match kernel with
  | "sw4" ->
      (Sw4.Scenario.production_step_model ~overlap:true ~gpu_frac:split ~comm
         m ~nodes:256 ~grid_points:26.0e9)
        .Sw4.Scenario.overlapped_s
  | "md" ->
      let scen =
        if m.Hwsim.Node.node.Hwsim.Node.gpus >= 4 then Ddcmd.Perf.Four_gpu
        else Ddcmd.Perf.One_gpu
      in
      (Ddcmd.Perf.ddcmd_step_model ~overlap:true ~node:m.Hwsim.Node.node
         ~gpu_frac:split ~comm scen)
        .Ddcmd.Perf.overlapped_s
  | "kavg" ->
      (Dlearn.Distributed.kavg_round_model ~overlap:true
         ~topology:m.Hwsim.Node.topology ~node:m.Hwsim.Node.node
         ~gpu_frac:split ~comm ~learners:512 ~k:8 ~batch:32 kavg_sizes)
        .Dlearn.Distributed.overlapped_round_s
  | k -> invalid_arg ("Harness_tune: unknown kernel " ^ k)

let row_of kernel machine (r : Opt.Autotune.result) =
  let default_s = r.Opt.Autotune.default.Opt.Autotune.makespan in
  let tuned_s = r.Opt.Autotune.best.Opt.Autotune.makespan in
  {
    kernel;
    machine;
    default_s;
    tuned_s;
    split = r.Opt.Autotune.best.Opt.Autotune.cand.Opt.Autotune.split;
    comm =
      Hwsim.Split.comm_name
        r.Opt.Autotune.best.Opt.Autotune.cand.Opt.Autotune.comm;
    speedup = (if tuned_s > 0.0 then default_s /. tuned_s else 1.0);
    evaluations = r.Opt.Autotune.evaluations;
    mode = r.Opt.Autotune.mode;
  }

(** One exhaustive tuning per machine x kernel on the default 21-point
    lattice x {dedicated, inline}. Deterministic. *)
let bench_rows () =
  List.concat_map
    (fun m ->
      List.map
        (fun kernel ->
          row_of kernel (mname m) (Opt.Autotune.exhaustive (objective kernel m)))
        kernels)
    machines

(* --- tuned vs paper default, exhaustive over the 21-point lattice --- *)

let exhaustive_section () =
  let rows = bench_rows () in
  let t =
    Table.create
      ~title:
        "Tuned vs paper-default placement (exhaustive, 21-point lattice x \
         {dedicated, inline})"
      ~aligns:
        [|
          Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Left; Table.Right; Table.Right;
        |]
      [
        "machine"; "kernel"; "default (ms)"; "tuned (ms)"; "split"; "comm";
        "speedup"; "evals";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.machine; r.kernel;
          Table.fcell ~prec:3 (r.default_s *. 1e3);
          Table.fcell ~prec:3 (r.tuned_s *. 1e3);
          Table.fcell ~prec:2 r.split; r.comm;
          Table.fcell ~prec:3 r.speedup;
          string_of_int r.evaluations;
        ];
      let name = r.kernel ^ "/" ^ r.machine in
      Harness.record_row ~section:"tuner" ~unit:"s" (name ^ "/default_s")
        r.default_s;
      Harness.record_row ~section:"tuner" ~unit:"s" (name ^ "/tuned_s")
        r.tuned_s)
    rows;
  let never_worse = List.for_all (fun r -> r.tuned_s <= r.default_s) rows in
  Harness.record_check "tune/tuned<=default-everywhere" never_worse;
  Harness.record_check "tune/tuned>0-and-split-in-[0,1]"
    (List.for_all
       (fun r -> r.tuned_s > 0.0 && r.split >= 0.0 && r.split <= 1.0)
       rows);
  Harness.record_check "tune/tuning-wins-somewhere"
    (List.exists (fun r -> r.tuned_s < r.default_s) rows);
  Harness.section "Work-partitioning auto-tuner — tuned vs paper default"
    (Fmt.str
       "%struth: tuned makespan <= paper-default makespan on every machine x \
        kernel: %b\n"
       (Table.render t) never_worse)

(* --- annealing vs exhaustive ---

   Coarse lattice (5 points x 2 placements = 10 candidates) with a
   budget that covers it: the annealer must agree with the exhaustive
   sweep exactly — same makespan, bit for bit. Fine lattice (101
   points) with a 160-evaluation budget: true annealing, asserted never
   worse than the paper default and reported against the exhaustive
   21-point result. *)

let anneal_section () =
  let coarse = Hwsim.Split.lattice ~steps:4 () in
  let fine = Hwsim.Split.lattice ~steps:100 () in
  let t =
    Table.create
      ~title:
        "Annealed search (seed 42): coarse lattice = exhaustive fallback, \
         fine lattice = 160-eval budget over 202 candidates"
      ~aligns:
        [|
          Table.Left; Table.Left; Table.Left; Table.Right; Table.Right;
          Table.Right;
        |]
      [
        "machine"; "kernel"; "coarse = exhaustive"; "fine tuned (ms)";
        "fine split"; "evals";
      ]
  in
  let agree = ref true and fine_never_worse = ref true in
  List.iter
    (fun m ->
      List.iter
        (fun kernel ->
          let obj = objective kernel m in
          let ex = Opt.Autotune.exhaustive ~splits:coarse obj in
          let an = Opt.Autotune.anneal ~seed:42 ~iters:50 ~splits:coarse obj in
          let same =
            Float.equal ex.Opt.Autotune.best.Opt.Autotune.makespan
              an.Opt.Autotune.best.Opt.Autotune.makespan
          in
          agree := !agree && same;
          let fa = Opt.Autotune.anneal ~seed:42 ~iters:160 ~splits:fine obj in
          let fbest = fa.Opt.Autotune.best in
          fine_never_worse :=
            !fine_never_worse
            && fbest.Opt.Autotune.makespan
               <= fa.Opt.Autotune.default.Opt.Autotune.makespan;
          Table.add_row t
            [
              mname m; kernel; string_of_bool same;
              Table.fcell ~prec:3 (fbest.Opt.Autotune.makespan *. 1e3);
              Table.fcell ~prec:2 fbest.Opt.Autotune.cand.Opt.Autotune.split;
              string_of_int fa.Opt.Autotune.evaluations;
            ])
        kernels)
    machines;
  Harness.record_check "tune/anneal=exhaustive-when-budget-covers" !agree;
  Harness.record_check "tune/fine-anneal<=default-everywhere"
    !fine_never_worse;
  Harness.section "Annealed vs exhaustive search"
    (Fmt.str
       "%struth: annealing (budget >= lattice) matches exhaustive everywhere: \
        %b\ntruth: fine-lattice annealing <= paper default everywhere: %b\n"
       (Table.render t) !agree !fine_never_worse)

let tune () = exhaustive_section () ^ anneal_section ()

let harness =
  Harness.make ~id:"tune"
    ~description:
      "Heterogeneous work-partitioning auto-tuner: tuned vs paper-default \
       placements"
    ~tags:[ "study"; "activity:opt" ]
    tune

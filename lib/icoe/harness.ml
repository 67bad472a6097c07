open Icoe_util

type row = Icoe_obs.Bench_diff.measurement = {
  section : string;
  name : string;
  value : float;
  unit : string;
  klass : Icoe_obs.Bench_diff.klass;
  higher_better : bool;
}

type outcome = {
  report : string;
  traces : (string * Hwsim.Trace.t) list;
  metrics : Icoe_obs.Metrics.sample list;
  rows : row list;
  checks : (string * bool) list;
  artifacts : (string * (unit -> string)) list;
}

type t = {
  id : string;
  description : string;
  tags : string list;
  run : unit -> outcome;
}

let section title body = Fmt.str "### %s\n%s\n" title body

(* What the harness currently running has recorded, newest first.
   Harness bodies run one at a time in the caller's domain (pool workers
   never run harness code), so a single scoped ref suffices. Outside a
   harness body it is [None] and records are dropped. *)
let current : outcome option ref = ref None
let record f = Option.iter (fun o -> current := Some (f o)) !current

let record_trace name tr =
  record (fun o -> { o with traces = (name, tr) :: o.traces })

let record_row ~section ~unit ?(higher_better = false) name value =
  let klass = Icoe_obs.Bench_diff.Sim in
  record (fun o ->
      { o with rows = { section; name; value; unit; klass; higher_better } :: o.rows })

let record_check name ok =
  record (fun o -> { o with checks = (name, ok) :: o.checks })

let record_artifact name render =
  record (fun o -> { o with artifacts = (name, render) :: o.artifacts })

(* Per-harness comm/compute overlap rows. Harness bodies call this only
   when the stream scheduler actually overlapped, so ICOE_OVERLAP=0 runs
   record none. *)
let record_overlap id ~serial_s ~overlapped_s =
  record_row ~section:"overlap" ~unit:"s" (id ^ "/serial_s") serial_s;
  record_row ~section:"overlap" ~unit:"s" (id ^ "/overlapped_s") overlapped_s;
  record_check (id ^ "/overlap/hides-work")
    (overlapped_s > 0.0 && overlapped_s < serial_s);
  overlapped_s /. serial_s

(* A checkpoint/restart run under a fault plan: its time to solution as
   a row, and the acceptance properties as checks — the plan struck and
   every failure was recovered, recovery cost time, and the recovered
   state is bit-identical to the fault-free run. *)
let record_recovery id (rep : Icoe_fault.Checkpoint.report) ~identical =
  record_row ~section:"fault" ~unit:"s" (id ^ "/achieved_s") rep.achieved_s;
  record_check (id ^ "/fault/recovered")
    (rep.injected >= 1 && rep.recovered = rep.injected);
  record_check (id ^ "/fault/inflation>1")
    (Icoe_fault.Checkpoint.inflation rep > 1.0);
  record_check (id ^ "/fault/identical") identical

(* Critical-path blame rows, same gating contract as [record_overlap]:
   harness bodies call this only from overlap-gated sections. *)
let record_blame id (analysis : Icoe_obs.Prof.analysis) =
  List.iter
    (fun (b : Icoe_obs.Prof.blame) ->
      record_row ~section:"blame" ~unit:"s" (id ^ "/" ^ b.key) b.seconds)
    analysis.phase_blame;
  record_check (id ^ "/blame/shares-valid")
    (List.for_all
       (fun (b : Icoe_obs.Prof.blame) ->
         b.seconds >= 0.0 && b.share >= 0.0 && b.share <= 1.0)
       analysis.phase_blame)

(* Flight-recorder bridge: one "metric" event per changed sample in the
   harness's registry diff. *)
let emit_metric_events id samples =
  if Icoe_obs.Events.enabled () then
    List.iter
      (fun (s : Icoe_obs.Metrics.sample) ->
        let open Icoe_util.Json in
        let value, mtype =
          match s.Icoe_obs.Metrics.value with
          | Icoe_obs.Metrics.Counter v -> (v, "counter")
          | Icoe_obs.Metrics.Gauge v -> (v, "gauge")
          | Icoe_obs.Metrics.Histogram h ->
              (h.Icoe_obs.Metrics.sum, "histogram")
        in
        let label_fields =
          List.map (fun (k, v) -> ("label_" ^ k, Str v)) s.Icoe_obs.Metrics.labels
        in
        Icoe_obs.Events.emit ~kind:"metric" ~source:("harness/" ^ id)
          ([ ("name", Str s.Icoe_obs.Metrics.name); ("mtype", Str mtype);
             ("value", Num value) ]
          @ label_fields))
      samples

let make ~id ~description ?(tags = []) f =
  let run () =
    let saved = !current in
    current :=
      Some
        { report = ""; traces = []; metrics = []; rows = []; checks = [];
          artifacts = [] };
    Fun.protect
      ~finally:(fun () -> current := saved)
      (fun () ->
        let before = Icoe_obs.Metrics.snapshot () in
        let report = f () in
        let after = Icoe_obs.Metrics.snapshot () in
        let metrics = Icoe_obs.Metrics.diff ~before ~after in
        emit_metric_events id metrics;
        let o = Option.get !current in
        {
          report;
          metrics;
          traces = List.rev o.traces;
          rows = List.rev o.rows;
          checks = List.rev o.checks;
          artifacts = List.rev o.artifacts;
        })
  in
  { id; description; tags; run }

let run_isolated h =
  match h.run () with
  | o -> o
  | exception e ->
      let msg = Printexc.to_string e in
      Icoe_obs.Events.emit ~kind:"error" ~source:("harness/" ^ h.id)
        [ ("exn", Icoe_util.Json.Str msg) ];
      {
        report = section (h.id ^ " failed") ("raised " ^ msg);
        traces = []; metrics = []; rows = [];
        checks = [ (h.id ^ "/ran", false) ];
        artifacts = [];
      }

let simulated_seconds o =
  List.fold_left (fun acc (_, tr) -> acc +. Hwsim.Trace.total tr) 0.0 o.traces

let rollup_report = function
  | [] -> ""
  | ts ->
      let buf = Buffer.create 2048 in
      Buffer.add_string buf
        "### Trace rollups — where the simulated time went\n";
      List.iter
        (fun (name, tr) ->
          Buffer.add_string buf
            (Table.render
               (Hwsim.Trace.device_table ~title:(name ^ ": per-device rollup") tr));
          Buffer.add_string buf
            (Table.render
               (Hwsim.Trace.phase_table ~title:(name ^ ": per-phase rollup") tr));
          Buffer.add_string buf
            (Table.render
               (Hwsim.Trace.span_table ~title:(name ^ ": top spans") ~n:5 tr)))
        ts;
      Buffer.contents buf

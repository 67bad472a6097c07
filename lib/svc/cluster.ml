(* The cluster-level scheduler of the service simulation: an adapter
   over the shared core (Opt.Scheduler.Core) that adds model pricing,
   placement, the topology penalty, lifecycle events and the occupancy
   log. The memoized class price is the core's exact runtime estimate. *)

module Core = Opt.Scheduler.Core
module Json = Icoe_util.Json

type policy = Core.policy =
  | Fcfs
  | Easy_backfill
  | Sjf_quota of float
  | Partition of float

let policy_name = function
  | Fcfs -> "FCFS"
  | Easy_backfill -> "EASY-backfill"
  | Sjf_quota q -> Fmt.str "SJF+quota(%.0f%%)" (q *. 100.0)
  | Partition f -> Fmt.str "partition(%.0f%% wide)" (f *. 100.0)

type job_record = {
  job : Workload.job;
  dispatched : float;
  finished : float;
  placed : int list;
}

type metrics = {
  policy : string;
  nodes : int;
  submitted : int;
  completed : int;
  makespan : float;
  utilization : float;
  jobs_per_s : float;
  mean_wait : float;
  max_wait : float;
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
  turn_p50 : float;
  turn_p90 : float;
  turn_p99 : float;
  waits : float array;
  turnarounds : float array;
  log : job_record list;
  samples : (float * int * int) list;
}

(* share of a job's service time that is communication, the part a
   fragmented placement stretches *)
let comm_fraction = 0.2

let simulate ?check ?topology ~nodes
    ~(classes : Workload.job_class array) policy jobs =
  let price =
    let memo = Hashtbl.create 64 in
    fun (j : Workload.job) ->
      match Hashtbl.find_opt memo (j.Workload.klass, j.Workload.nodes) with
      | Some s -> s
      | None ->
          let s = classes.(j.Workload.klass).Workload.service ~nodes:j.Workload.nodes in
          if not (Float.is_finite s) || s <= 0.0 then
            invalid_arg
              (Fmt.str "Cluster.simulate: class %s priced %.17g s at %d nodes"
                 classes.(j.Workload.klass).Workload.name s j.Workload.nodes);
          Hashtbl.add memo (j.Workload.klass, j.Workload.nodes) s;
          s
  in
  (* lifecycle bookkeeping: concrete node ids (lowest-first placement)
     so the occupancy export can draw jobs onto stable per-node rows,
     plus queue-depth/free-node samples at every event time *)
  let source = "svc/" ^ policy_name policy in
  let free_ids = ref (List.init nodes Fun.id) in
  let live : (int, float * int list) Hashtbl.t = Hashtbl.create 64 in
  let log = ref [] and samples = ref [] in
  let emit_job ev ~t_s (j : Workload.job) fields =
    if Icoe_obs.Events.enabled () then
      Icoe_obs.Events.emit ~t_s ~kind:"job" ~source
        (Json.
           [
             ("ev", Str ev);
             ("job", Num (float_of_int j.Workload.id));
             ("class", Str classes.(j.Workload.klass).Workload.name);
             ("nodes", Num (float_of_int j.Workload.nodes));
           ]
        @ fields)
  in
  let dispatch ~t (j : Workload.job) =
    let n = j.Workload.nodes in
    let placed = List.filteri (fun i _ -> i < n) !free_ids in
    free_ids := List.filteri (fun i _ -> i >= n) !free_ids;
    (* placement-aware pricing: a fragmented gang's communication climbs
       higher switch levels than the contiguous-best one, stretching the
       comm share of its service time. Without a topology the
       model-priced service is charged unchanged. *)
    let s = price j in
    let s =
      match topology with
      | None -> s
      | Some topo ->
          let pen =
            Hwsim.Topology.placement_penalty topo ~nodes:j.Workload.nodes
              ~level:(Hwsim.Topology.crossing_of_ids topo placed)
          in
          if pen = 1.0 then s
          else s *. (1.0 +. (comm_fraction *. (pen -. 1.0)))
    in
    Hashtbl.replace live j.Workload.id (t, placed);
    emit_job "dispatch" ~t_s:t j
      [ ("wait_s", Json.Num (t -. j.Workload.arrival)); ("service_s", Json.Num s) ];
    s
  in
  let on_finish ~t (j : Workload.job) =
    let dispatched, placed =
      Option.value (Hashtbl.find_opt live j.Workload.id) ~default:(0.0, [])
    in
    Hashtbl.remove live j.Workload.id;
    free_ids := List.merge Int.compare placed !free_ids;
    log := { job = j; dispatched; finished = t; placed } :: !log;
    emit_job "finish" ~t_s:t j [ ("turnaround_s", Json.Num (t -. j.Workload.arrival)) ]
  in
  let after_event ~t ~depth ~free =
    samples := (t, depth, free) :: !samples;
    if Icoe_obs.Events.enabled () then
      Icoe_obs.Events.emit ~t_s:t ~kind:"queue" ~source
        Json.
          [
            ("depth", Num (float_of_int depth));
            ("free_nodes", Num (float_of_int free));
          ]
  in
  let { Core.makespan; busy; completed; waits } =
    Core.run ?check ~pool:nodes
      {
        Core.width = (fun (j : Workload.job) -> j.Workload.nodes);
        arrival = (fun j -> j.Workload.arrival);
        estimate = price;
        dispatch;
        on_submit = (fun j -> emit_job "submit" ~t_s:j.Workload.arrival j []);
        on_finish;
        after_event;
      }
      policy jobs
  in
  let waits = Array.of_list (List.rev waits) in
  let log = List.rev !log in
  let turnarounds =
    Array.of_list (List.map (fun x -> x.finished -. x.job.Workload.arrival) log)
  in
  let sorted_w = Icoe_util.Stats.presort waits in
  let sorted_tt = Icoe_util.Stats.presort turnarounds in
  let pct a p =
    if Array.length a = 0 then 0.0 else Icoe_util.Stats.percentile_sorted a p
  in
  {
    policy = policy_name policy;
    nodes;
    submitted = List.length jobs;
    completed;
    makespan;
    utilization = busy /. (float_of_int nodes *. max 1e-9 makespan);
    jobs_per_s = float_of_int completed /. max 1e-9 makespan;
    mean_wait =
      (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
    max_wait =
      (if Array.length waits = 0 then 0.0
       else snd (Icoe_util.Stats.min_max waits));
    wait_p50 = pct sorted_w 0.5;
    wait_p90 = pct sorted_w 0.9;
    wait_p99 = pct sorted_w 0.99;
    turn_p50 = pct sorted_tt 0.5;
    turn_p90 = pct sorted_tt 0.9;
    turn_p99 = pct sorted_tt 0.99;
    waits;
    turnarounds;
    log;
    samples = List.rev !samples;
  }

(* --- cluster-occupancy Chrome trace: nodes as pids, jobs as spans --- *)

let occupancy_chrome_json (m : metrics) =
  let num i = Json.Num (float_of_int i) in
  let event ~name ~ph ~pid fields args =
    Json.Obj
      ((("name", Json.Str name) :: ("ph", Json.Str ph) :: ("pid", num pid)
       :: fields)
      @ [ ("args", Json.Obj args) ])
  in
  let process pid name =
    event ~name:"process_name" ~ph:"M" ~pid [] [ ("name", Json.Str name) ]
  in
  (* name each node process once, in id order *)
  let nodes_used =
    List.sort_uniq Int.compare (List.concat_map (fun r -> r.placed) m.log)
  in
  let processes =
    List.map (fun node -> process node (Fmt.str "node%03d" node)) nodes_used
    @ [ process m.nodes (Fmt.str "scheduler (%s)" m.policy) ]
  in
  (* one complete-span per (job, node) row *)
  let spans =
    List.concat_map
      (fun r ->
        let name =
          Fmt.str "job %d (%dn)" r.job.Workload.id r.job.Workload.nodes
        in
        let fields =
          [
            ("tid", num 0);
            ("ts", Json.Num (r.dispatched *. 1e6));
            ("dur", Json.Num (Float.max 0.0 (r.finished -. r.dispatched) *. 1e6));
          ]
        and args = [ ("wait_s", Json.Num (r.dispatched -. r.job.Workload.arrival)) ] in
        List.map (fun node -> event ~name ~ph:"X" ~pid:node fields args) r.placed)
      m.log
  in
  (* queue-depth / free-node counter tracks on the scheduler process *)
  let counters =
    List.concat_map
      (fun (t, depth, fr) ->
        let ts = [ ("ts", Json.Num (t *. 1e6)) ] in
        [
          event ~name:"queue depth" ~ph:"C" ~pid:m.nodes ts [ ("jobs", num depth) ];
          event ~name:"free nodes" ~ph:"C" ~pid:m.nodes ts [ ("nodes", num fr) ];
        ])
      m.samples
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.Arr (processes @ spans @ counters));
       ])

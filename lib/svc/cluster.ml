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

(* a job as the core sees it: the dispatch time and the nodes it holds
   ride along from dispatch to finish *)
type slot = {
  j : Workload.job;
  mutable t0 : float;
  mutable held : int list;
}

let simulate ?check ?topology ~nodes
    ~(classes : Workload.job_class array) policy jobs =
  (* one row of memoized prices per class, indexed by allocation size
     and made on first use; NaN marks a size not yet priced (a price is
     finite) *)
  let memo = Array.make (Array.length classes) [||] in
  let price (j : Workload.job) =
    let k = j.Workload.klass and n = j.Workload.nodes in
    let c = classes.(k) in
    if Array.length memo.(k) = 0 then memo.(k) <- Array.make (nodes + 1) Float.nan;
    let row = memo.(k) in
    let cached = n >= 0 && n <= nodes in
    if cached && not (Float.is_nan row.(n)) then row.(n)
    else begin
      let s = c.Workload.service ~nodes:n in
      if not (Float.is_finite s) || s <= 0.0 then
        invalid_arg
          (Fmt.str "Cluster.simulate: class %s priced %.17g s at %d nodes"
             c.Workload.name s n);
      if cached then row.(n) <- s;
      s
    end
  in
  (* lifecycle bookkeeping: concrete node ids (lowest-first placement
     from a free-node bitmap) so the occupancy export can draw jobs onto
     stable per-node rows, plus queue-depth/free-node samples at every
     event time *)
  let source = "svc/" ^ policy_name policy in
  let busy_node = Bytes.make nodes '\000' in
  let log = ref [] and samples = ref [] in
  let emit_job ev ~t_s (j : Workload.job) fields =
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
  (* the [n] lowest free node ids, ascending, marked busy; every id below
     [lowest] is busy *)
  let picked = Array.make nodes 0 and lowest = ref 0 in
  let place n =
    let id = ref !lowest in
    for k = 0 to n - 1 do
      while Bytes.get busy_node !id <> '\000' do
        incr id
      done;
      Bytes.set busy_node !id '\001';
      picked.(k) <- !id
    done;
    if n > 0 then lowest := !id + 1;
    let placed = ref [] in
    for k = n - 1 downto 0 do
      placed := picked.(k) :: !placed
    done;
    !placed
  in
  let dispatch ~t sl =
    let j = sl.j in
    let placed = place j.Workload.nodes in
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
    sl.t0 <- t;
    sl.held <- placed;
    if Icoe_obs.Events.enabled () then
      emit_job "dispatch" ~t_s:t j
        [ ("wait_s", Json.Num (t -. j.Workload.arrival)); ("service_s", Json.Num s) ];
    s
  in
  let on_finish ~t sl =
    let j = sl.j in
    List.iter (fun id -> Bytes.set busy_node id '\000') sl.held;
    (match sl.held with id :: _ when id < !lowest -> lowest := id | _ -> ());
    log := { job = j; dispatched = sl.t0; finished = t; placed = sl.held } :: !log;
    if Icoe_obs.Events.enabled () then
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
        Core.width = (fun sl -> sl.j.Workload.nodes);
        arrival = (fun sl -> sl.j.Workload.arrival);
        estimate = (fun sl -> price sl.j);
        dispatch;
        on_submit =
          (fun sl ->
            if Icoe_obs.Events.enabled () then
              emit_job "submit" ~t_s:sl.j.Workload.arrival sl.j []);
        on_finish;
        after_event;
      }
      policy
      (List.map (fun j -> { j; t0 = 0.0; held = [] }) jobs)
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

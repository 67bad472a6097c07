module Metrics = Icoe_obs.Metrics

type report = {
  steps : int;
  interval : int;
  step_cost_s : float;
  injected : int;
  recovered : int;
  checkpoints : int;
  ideal_s : float;
  achieved_s : float;
  checkpoint_overhead_s : float;
  lost_work_s : float;
}

let inflation r = if r.ideal_s > 0.0 then r.achieved_s /. r.ideal_s else 1.0

let pp_report ppf r =
  Format.fprintf ppf
    "%d steps x %.4g s, checkpoint every %d: %d failure(s), %d \
     recovery(ies), %d checkpoint(s); ideal %.4g s -> achieved %.4g s \
     (inflation %.3fx; %.4g s checkpoint overhead, %.4g s lost work)"
    r.steps r.step_cost_s r.interval r.injected r.recovered r.checkpoints
    r.ideal_s r.achieved_s (inflation r) r.checkpoint_overhead_s
    r.lost_work_s

let young_daly_s ~mtbf_s ~checkpoint_cost_s =
  if not (mtbf_s > 0.0 && checkpoint_cost_s >= 0.0) then
    invalid_arg "Checkpoint.young_daly_s";
  sqrt (2.0 *. checkpoint_cost_s *. mtbf_s)

let young_daly_steps ~mtbf_s ~checkpoint_cost_s ~step_cost_s =
  if not (step_cost_s > 0.0) then invalid_arg "Checkpoint.young_daly_steps";
  max 1
    (int_of_float (Float.round (young_daly_s ~mtbf_s ~checkpoint_cost_s
                                /. step_cost_s)))

let m_injected =
  Metrics.counter ~help:"Node failures injected into checkpointed runs"
    "fault_injected_total"

let m_recovered =
  Metrics.counter ~help:"Checkpoint restore-and-replay recoveries"
    "fault_recoveries_total"

let m_checkpoints =
  Metrics.counter ~help:"Checkpoints written by the fault driver"
    "fault_checkpoints_total"

let m_recovery =
  Metrics.histogram
    ~help:"Simulated seconds of downtime + restart per recovery"
    "fault_recovery_seconds"

let m_lost =
  Metrics.histogram ~help:"Simulated seconds of work lost per failure"
    "fault_lost_work_seconds"

let run ~plan ?(restart_cost_s = 0.0) ~step_cost_s ~checkpoint_cost_s
    ~interval ~steps ~snapshot ~restore ~step () =
  if interval < 1 then invalid_arg "Checkpoint.run: interval must be >= 1";
  if steps < 0 then invalid_arg "Checkpoint.run: steps must be >= 0";
  if not (step_cost_s > 0.0) then
    invalid_arg "Checkpoint.run: step_cost_s must be > 0";
  if not (checkpoint_cost_s >= 0.0 && restart_cost_s >= 0.0) then
    invalid_arg "Checkpoint.run: costs must be >= 0";
  let t = ref 0.0 in
  let completed = ref 0 in
  let high_water = ref 0 in
  let ck_state = ref (snapshot ()) in
  let ck_step = ref 0 in
  let injected = ref 0 and recovered = ref 0 and checkpoints = ref 0 in
  let lost = ref 0.0 and overhead = ref 0.0 in
  while !completed < steps do
    match Plan.next_node_failure plan ~after:!t with
    | Some f when f.Plan.at < !t +. step_cost_s ->
        (* the in-flight step is lost: roll back to the last snapshot,
           wait out the downtime, pay the restart, replay *)
        let partial = Float.max 0.0 (f.Plan.at -. !t) in
        incr injected;
        Metrics.inc m_injected;
        if Icoe_obs.Events.enabled () then
          Icoe_obs.Events.emit ~t_s:f.Plan.at ~kind:"fault"
            ~source:"fault/checkpoint"
            Icoe_util.Json.
              [
                ("fault", Str "node-failure");
                ("lost_steps", Num (float_of_int (!completed - !ck_step)));
                ("downtime_s", Num f.Plan.downtime);
                ("restart_s", Num restart_cost_s);
              ];
        restore !ck_state;
        Metrics.observe m_lost
          (partial
          +. (float_of_int (!completed - !ck_step) *. step_cost_s));
        completed := !ck_step;
        t := f.Plan.at +. f.Plan.downtime +. restart_cost_s;
        lost := !lost +. partial +. f.Plan.downtime +. restart_cost_s;
        incr recovered;
        Metrics.inc m_recovered;
        Metrics.observe m_recovery (f.Plan.downtime +. restart_cost_s)
    | _ ->
        step !completed;
        if !completed < !high_water then lost := !lost +. step_cost_s;
        t := !t +. step_cost_s;
        incr completed;
        high_water := max !high_water !completed;
        if !completed < steps && !completed mod interval = 0 then begin
          t := !t +. checkpoint_cost_s;
          overhead := !overhead +. checkpoint_cost_s;
          ck_state := snapshot ();
          ck_step := !completed;
          incr checkpoints;
          Metrics.inc m_checkpoints;
          if Icoe_obs.Events.enabled () then
            Icoe_obs.Events.emit ~t_s:!t ~kind:"fault"
              ~source:"fault/checkpoint"
              Icoe_util.Json.
                [
                  ("fault", Str "checkpoint");
                  ("at_step", Num (float_of_int !completed));
                  ("cost_s", Num checkpoint_cost_s);
                ]
        end
  done;
  {
    steps;
    interval;
    step_cost_s;
    injected = !injected;
    recovered = !recovered;
    checkpoints = !checkpoints;
    ideal_s = float_of_int steps *. step_cost_s;
    achieved_s = !t;
    checkpoint_overhead_s = !overhead;
    lost_work_s = !lost;
  }

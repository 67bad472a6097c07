module Cluster = Sparkle.Cluster
module Trace = Hwsim.Trace
module Rng = Icoe_util.Rng
module Metrics = Icoe_obs.Metrics

type t = {
  cl : Cluster.t;
  plan : Plan.t;
  policy : Retry.policy;
  rng : Rng.t;
  mutable injected : int;
  mutable recovered : int;
  mutable retries : int;
  mutable gave_up : int;
}

type stats = {
  injected : int;
  recovered : int;
  retries : int;
  gave_up : int;
}

let m_failures =
  Metrics.counter ~help:"Node failures striking a cluster collective"
    "fault_cluster_failures_total"

let m_recovered =
  Metrics.counter ~help:"Cluster collectives recovered via retry"
    "fault_cluster_recoveries_total"

let m_recovery =
  Metrics.histogram
    ~help:"Simulated seconds from failure strike to collective completion"
    "fault_cluster_recovery_seconds"

let create ?(policy = Retry.default_policy) plan config =
  {
    cl = Cluster.create config;
    plan;
    policy;
    (* jitter stream derived from the plan seed: same plan, same run *)
    rng = Rng.create (Plan.seed plan lxor 0x5eed);
    injected = 0;
    recovered = 0;
    retries = 0;
    gave_up = 0;
  }

let cluster t = t.cl
let elapsed t = Cluster.elapsed t.cl
let stats (t : t) =
  {
    injected = t.injected;
    recovered = t.recovered;
    retries = t.retries;
    gave_up = t.gave_up;
  }

let failure_in plan ~a ~b =
  match Plan.next_node_failure plan ~after:a with
  | Some f -> f.Plan.at <= b
  | None -> false

(* Straggler excess on a compute window. *)
let straggler_excess t ~e0 ~dt =
  let slow = Plan.straggler_slowdown t.plan ~now:e0 in
  if slow > 1.0 && dt > 0.0 then
    Trace.charge (Cluster.trace t.cl) ~phase:"fault:straggler"
      ((slow -. 1.0) *. dt)

(* Degraded-fabric excess on a network window: the clean window [dt]
   stretches by the reciprocal of the bandwidth factor. *)
let degradation_excess t ~e0 ~dt =
  let bw_factor, _ = Plan.link_factors t.plan ~now:e0 in
  if bw_factor < 1.0 && dt > 0.0 then begin
    Trace.charge (Cluster.trace t.cl) ~phase:"fault:degraded-link"
      (((1.0 /. bw_factor) -. 1.0) *. dt)
  end

(* A node failure inside a collective's window kills the collective;
   retry with backoff until an attempt's window is failure-free. *)
let survive_failures t ~e0 ~dt =
  if dt > 0.0 && failure_in t.plan ~a:e0 ~b:(e0 +. dt) then begin
    t.injected <- t.injected + 1;
    Metrics.inc m_failures;
    let trace = Cluster.trace t.cl in
    let result, (out : Retry.outcome) =
      Retry.run ~policy:t.policy ~rng:t.rng
        ~charge:(fun d -> Trace.charge trace ~phase:"fault:backoff" d)
        (fun ~attempt:_ ->
          let a = Cluster.elapsed t.cl in
          Trace.charge trace ~phase:"fault:rework" dt;
          if failure_in t.plan ~a ~b:(a +. dt) then Error () else Ok ())
    in
    t.retries <- t.retries + out.Retry.attempts;
    match result with
    | Ok () ->
        t.recovered <- t.recovered + 1;
        Metrics.inc m_recovered;
        Metrics.observe m_recovery (Cluster.elapsed t.cl -. e0 -. dt)
    | Error () -> t.gave_up <- t.gave_up + 1
  end

let windowed t prim =
  let e0 = Cluster.elapsed t.cl in
  prim ();
  (e0, Cluster.elapsed t.cl -. e0)

let charge_compute t ~flops =
  let e0, dt = windowed t (fun () -> Cluster.charge_compute t.cl ~flops) in
  straggler_excess t ~e0 ~dt

let network t prim =
  let e0, dt = windowed t prim in
  degradation_excess t ~e0 ~dt;
  survive_failures t ~e0 ~dt

let charge_shuffle t ~bytes =
  network t (fun () -> Cluster.charge_shuffle t.cl ~bytes)

let charge_aggregate t ~bytes_per_node =
  network t (fun () -> Cluster.charge_aggregate t.cl ~bytes_per_node)

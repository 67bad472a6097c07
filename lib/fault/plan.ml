(* Seeded fault plans: generate-once schedules of node failures, link
   degradations, stragglers, and transient kernel faults.  Queries are
   pure lookups over sorted arrays, so consulting a plan can never
   perturb determinism. *)

module Rng = Icoe_util.Rng

type node_failure = { node : int; at : float; downtime : float }

type link_degradation = {
  deg_at : float;
  deg_until : float;
  bw_factor : float;
  latency_factor : float;
}

type straggler = {
  straggler_at : float;
  straggler_until : float;
  slowdown : float;
}

type config = {
  nodes : int;
  horizon_s : float;
  node_mtbf_s : float;
  node_downtime_s : float;
  link_mtbf_s : float;
  link_degraded_s : float;
  straggler_mtbf_s : float;
  straggler_s : float;
  kernel_fault_mtbf_s : float;
}

let default_config =
  {
    nodes = 16;
    horizon_s = 4000.0;
    node_mtbf_s = 9600.0 (* system MTBF 600 s on 16 nodes *);
    node_downtime_s = 60.0;
    link_mtbf_s = 900.0;
    link_degraded_s = 120.0;
    straggler_mtbf_s = 700.0;
    straggler_s = 90.0;
    kernel_fault_mtbf_s = 500.0;
  }

type t = {
  cfg : config;
  plan_seed : int;
  failures : node_failure array;  (* sorted by [at] *)
  degradations : link_degradation array;  (* sorted by [deg_at] *)
  stragglers : straggler array;  (* sorted by [straggler_at] *)
  kernel_faults : float array;  (* sorted *)
}

let seed t = t.plan_seed

(* Draw a Poisson arrival sequence on [0, horizon) with the given mean
   inter-arrival time; [infinity] disables the stream. [generate] has
   rejected every other non-positive or NaN mean. *)
let arrivals rng ~mtbf ~horizon =
  if not (Float.is_finite mtbf) then []
  else begin
    assert (mtbf > 0.0);
    let rate = 1.0 /. mtbf in
    let rec go acc t =
      let t = t +. Rng.exponential rng ~rate in
      if t >= horizon then List.rev acc else go (t :: acc) t
    in
    go [] 0.0
  end

let generate ~seed cfg =
  if cfg.nodes <= 0 then invalid_arg "Plan.generate: nodes must be positive";
  if not (cfg.horizon_s > 0.0) then
    invalid_arg "Plan.generate: horizon must be positive";
  List.iter
    (fun (name, mtbf) ->
      if not (mtbf > 0.0) then
        invalid_arg
          (Printf.sprintf "Plan.generate: %s must be positive, got %g" name mtbf))
    [
      ("node_mtbf_s", cfg.node_mtbf_s); ("link_mtbf_s", cfg.link_mtbf_s);
      ("straggler_mtbf_s", cfg.straggler_mtbf_s);
      ("kernel_fault_mtbf_s", cfg.kernel_fault_mtbf_s);
    ];
  let root = Rng.create seed in
  (* One child stream per fault class, so tweaking one hazard rate
     leaves the other classes' schedules untouched. *)
  let node_rng = Rng.split root in
  let link_rng = Rng.split root in
  let straggler_rng = Rng.split root in
  let kernel_rng = Rng.split root in
  let failures =
    (* A single system-level arrival process at rate nodes/mtbf, with
       the struck node drawn uniformly: equivalent in distribution to
       per-node processes but O(events) instead of O(nodes). *)
    let mtbf = cfg.node_mtbf_s /. float_of_int cfg.nodes in
    arrivals node_rng ~mtbf ~horizon:cfg.horizon_s
    |> List.map (fun at ->
           let node = Rng.int node_rng cfg.nodes in
           let downtime =
             Rng.exponential node_rng ~rate:(1.0 /. cfg.node_downtime_s)
           in
           { node; at; downtime })
    |> Array.of_list
  in
  let degradations =
    arrivals link_rng ~mtbf:cfg.link_mtbf_s ~horizon:cfg.horizon_s
    |> List.map (fun at ->
           let dur =
             Rng.exponential link_rng ~rate:(1.0 /. cfg.link_degraded_s)
           in
           (* bandwidth cut to 20-80 %, latency spike 1-8x; roughly one
              in three episodes is latency-only. *)
           let bw_factor =
             if Rng.int link_rng 3 = 0 then 1.0
             else Rng.uniform link_rng 0.2 0.8
           in
           let latency_factor = Rng.uniform link_rng 1.0 8.0 in
           { deg_at = at; deg_until = at +. dur; bw_factor; latency_factor })
    |> Array.of_list
  in
  let stragglers =
    arrivals straggler_rng ~mtbf:cfg.straggler_mtbf_s ~horizon:cfg.horizon_s
    |> List.map (fun at ->
           let dur =
             Rng.exponential straggler_rng ~rate:(1.0 /. cfg.straggler_s)
           in
           let slowdown = Rng.uniform straggler_rng 1.3 4.0 in
           {
             straggler_at = at;
             straggler_until = at +. dur;
             slowdown;
           })
    |> Array.of_list
  in
  let kernel_faults =
    arrivals kernel_rng ~mtbf:cfg.kernel_fault_mtbf_s ~horizon:cfg.horizon_s
    |> Array.of_list
  in
  { cfg; plan_seed = seed; failures; degradations; stragglers; kernel_faults }

type spec = { spec_seed : int; intensity : float }

let spec ?(intensity = 1.0) seed =
  if not (intensity > 0.0) then invalid_arg "Plan.spec: intensity must be > 0";
  { spec_seed = seed; intensity }

let for_run s ~ideal_s ~nodes =
  if not (ideal_s > 0.0) then invalid_arg "Plan.for_run: ideal_s must be > 0";
  let system_mtbf = ideal_s /. (4.0 *. s.intensity) in
  generate ~seed:s.spec_seed
    {
      nodes;
      (* failures inflate completion well past ideal_s; keep drawing
         events far enough out that late rework still sees them. *)
      horizon_s = 16.0 *. ideal_s;
      node_mtbf_s = system_mtbf *. float_of_int nodes;
      node_downtime_s = system_mtbf /. 8.0;
      link_mtbf_s = system_mtbf *. 1.5;
      link_degraded_s = system_mtbf /. 4.0;
      straggler_mtbf_s = system_mtbf *. 1.2;
      straggler_s = system_mtbf /. 5.0;
      kernel_fault_mtbf_s = system_mtbf /. 1.5;
    }

let node_failures t = Array.to_list t.failures

let next_node_failure t ~after =
  (* arrays are small (tens of events); linear scan keeps this obvious *)
  let n = Array.length t.failures in
  let rec go i =
    if i >= n then None
    else if t.failures.(i).at > after then Some t.failures.(i)
    else go (i + 1)
  in
  go 0

let node_down t ~node ~now =
  Array.exists
    (fun f -> f.node = node && f.at <= now && now < f.at +. f.downtime)
    t.failures

let link_factors t ~now =
  Array.fold_left
    (fun (bw, lat) d ->
      if d.deg_at <= now && now < d.deg_until then
        (bw *. d.bw_factor, lat *. d.latency_factor)
      else (bw, lat))
    (1.0, 1.0) t.degradations

let straggler_slowdown t ~now =
  Array.fold_left
    (fun acc s ->
      if s.straggler_at <= now && now < s.straggler_until then
        Float.max acc s.slowdown
      else acc)
    1.0 t.stragglers

let kernel_faults_in t ~a ~b =
  Array.fold_left
    (fun acc at -> if a < at && at <= b then acc + 1 else acc)
    0 t.kernel_faults

let mtbf t =
  let n = Array.length t.failures in
  if n = 0 then t.cfg.horizon_s else t.cfg.horizon_s /. float_of_int n

let counts t =
  ( Array.length t.failures,
    Array.length t.degradations,
    Array.length t.stragglers,
    Array.length t.kernel_faults )

let pp_summary ppf t =
  let nf, nd, ns, nk = counts t in
  Format.fprintf ppf
    "fault plan (seed %d): %d nodes over %.4g s horizon; %d node \
     failure(s) (system MTBF %.4g s), %d link degradation(s), %d \
     straggler episode(s), %d transient kernel fault(s)"
    t.plan_seed t.cfg.nodes t.cfg.horizon_s nf (mtbf t) nd ns nk

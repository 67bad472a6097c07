module Metrics = Icoe_obs.Metrics
module Link = Hwsim.Link
module Roofline = Hwsim.Roofline
module Trace = Hwsim.Trace

let m_degraded =
  Metrics.counter ~help:"Transfers priced under a degraded link"
    "fault_degraded_transfers_total"

let m_straggler =
  Metrics.counter ~help:"Kernels priced under a straggler slowdown"
    "fault_straggler_kernels_total"

let m_reexec =
  Metrics.counter ~help:"Kernel re-executions forced by transient faults"
    "fault_kernel_reexecutions_total"

let transfer_time plan ~now (l : Link.t) ~bytes =
  let bw_factor, latency_factor = Plan.link_factors plan ~now in
  if bw_factor = 1.0 && latency_factor = 1.0 then Link.transfer_time l ~bytes
  else begin
    Metrics.inc m_degraded;
    Link.transfer_time
      { l with bw_gbs = l.bw_gbs *. bw_factor;
               latency_s = l.latency_s *. latency_factor }
      ~bytes
  end

(* metrics-free core: stretched time and the transient-fault fixed
   point, shared by the public entry points so counters bump once. *)
let stretched_time plan ~now ?eff ?lanes_used device kernel =
  Roofline.time ?eff ?lanes_used device kernel
  *. Plan.straggler_slowdown plan ~now

let faults_fixed_point plan ~now base =
  (* each transient fault inside the execution window costs a full
     re-execution, which widens the window; iterate to the fixed
     point (monotone, bounded by the plan's fault count). *)
  let rec settle faults =
    let total = base *. float_of_int (faults + 1) in
    let seen = Plan.kernel_faults_in plan ~a:now ~b:(now +. total) in
    if seen = faults then (total, faults) else settle seen
  in
  if base > 0.0 then settle 0 else (base, 0)

let kernel_time plan ~now ?eff ?lanes_used device kernel =
  if Plan.straggler_slowdown plan ~now > 1.0 then Metrics.inc m_straggler;
  stretched_time plan ~now ?eff ?lanes_used device kernel

let kernel_time_with_faults plan ~now ?eff ?lanes_used device kernel =
  let base = kernel_time plan ~now ?eff ?lanes_used device kernel in
  let total, faults = faults_fixed_point plan ~now base in
  if faults > 0 then Metrics.inc ~by:(float_of_int faults) m_reexec;
  (total, faults)

(* Flight-recorder bridge: one "fault" event per injected cost (the
   extra seconds a fault added on top of the clean price). *)
let emit_fault_event ~t_s ~fault ~phase extra_s =
  if Icoe_obs.Events.enabled () then
    Icoe_obs.Events.emit ~t_s ~kind:"fault" ~source:"fault/inject"
      Icoe_util.Json.
        [ ("fault", Str fault); ("phase", Str phase); ("extra_s", Num extra_s) ]

let charge_transfer plan trace ?device ~phase l ~bytes =
  let now = Trace.now trace in
  let clean = Link.transfer_time l ~bytes in
  let total = transfer_time plan ~now l ~bytes in
  Trace.charge trace ?device ~phase clean;
  if total > clean then begin
    Trace.charge trace ?device ~phase:"fault:degraded-link" (total -. clean);
    emit_fault_event ~t_s:now ~fault:"degraded-link" ~phase (total -. clean)
  end;
  total

let charge_kernel plan trace ?eff ?lanes_used ?phase device kernel =
  let now = Trace.now trace in
  let clean = Roofline.time ?eff ?lanes_used device kernel in
  let stretched = kernel_time plan ~now ?eff ?lanes_used device kernel in
  let total, faults = faults_fixed_point plan ~now stretched in
  if faults > 0 then Metrics.inc ~by:(float_of_int faults) m_reexec;
  let phase = match phase with Some p -> p | None -> kernel.Hwsim.Kernel.name in
  let device = device.Hwsim.Device.name in
  Trace.charge trace ~device ~phase clean;
  if stretched > clean then begin
    Trace.charge trace ~device ~phase:"fault:straggler" (stretched -. clean);
    emit_fault_event ~t_s:now ~fault:"straggler" ~phase (stretched -. clean)
  end;
  if total > stretched then begin
    Trace.charge trace ~device ~phase:"fault:rework" (total -. stretched);
    emit_fault_event ~t_s:now ~fault:"rework" ~phase (total -. stretched)
  end;
  total

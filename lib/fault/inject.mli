(** Fault-aware wrappers over the hwsim pricing primitives.

    Each function is the clean model ([Hwsim.Link.transfer_time],
    [Hwsim.Roofline.time]) with the plan consulted at the caller's
    current simulated time: link degradations stretch transfers,
    straggler episodes stretch kernels, and transient kernel faults
    force whole re-executions.  The [charge_*] variants emit the clean
    cost under the caller's phase and the fault-induced excess under
    dedicated [fault:*] phases, so the trace's per-phase rollups expose
    exactly what faults cost. *)

val transfer_time : Plan.t -> now:float -> Hwsim.Link.t -> bytes:float -> float
(** [Link.transfer_time] with the plan's bandwidth/latency factors
    applied at [now]. *)

val kernel_time :
  Plan.t ->
  now:float ->
  ?eff:Hwsim.Roofline.efficiency ->
  ?lanes_used:int ->
  Hwsim.Device.t ->
  Hwsim.Kernel.t ->
  float
(** [Roofline.time] stretched by the straggler slowdown active at
    [now] (transient faults not included). *)

val kernel_time_with_faults :
  Plan.t ->
  now:float ->
  ?eff:Hwsim.Roofline.efficiency ->
  ?lanes_used:int ->
  Hwsim.Device.t ->
  Hwsim.Kernel.t ->
  float * int
(** As {!kernel_time}, plus transient kernel faults: every fault the
    plan schedules inside the (stretched, repeatedly re-executed)
    window costs one full re-execution.  Returns (total seconds,
    faults absorbed); the fixed point is deterministic. *)

val charge_transfer :
  Plan.t ->
  Hwsim.Trace.t ->
  ?device:string ->
  phase:string ->
  Hwsim.Link.t ->
  bytes:float ->
  float
(** Charge the clean transfer under [phase] and the degradation excess
    under ["fault:degraded-link"]; returns total seconds. *)

val charge_kernel :
  Plan.t ->
  Hwsim.Trace.t ->
  ?eff:Hwsim.Roofline.efficiency ->
  ?lanes_used:int ->
  ?phase:string ->
  Hwsim.Device.t ->
  Hwsim.Kernel.t ->
  float
(** Charge the clean kernel under [phase] (default: kernel name), the
    straggler excess under ["fault:straggler"], and transient-fault
    re-executions under ["fault:rework"]; returns total seconds. *)

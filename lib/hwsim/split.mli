(** CPU/GPU work splits for heterogeneous co-execution.

    The paper's placements are all-or-nothing: a kernel runs either on
    the accelerator or on the host cores. Following Memeti & Pllana
    (ICPPW'16) and Borrell et al.'s POWER9 CPU/GPU co-execution, this
    module makes the split a first-class parameter: a divisible work
    item gives the accelerator a share [f] in [0, 1] and the host cores
    co-execute the remaining [1 - f] on their own stream.

    Contract: [f = 1.0] (the paper default) enqueues exactly the one
    all-GPU item with its duration multiplied by the float literal
    [1.0] — bit-identical to the pre-split step models, which is what
    lets the tuner's default candidate reproduce today's numbers. *)

type comm = Dedicated | Inline
(** Stream placement of a model's communication item: [Dedicated] keeps
    it on its own stream ("nic"/"net" — the paper default, free to
    overlap with compute); [Inline] issues it on the compute stream,
    serializing it with the kernel work that surrounds it. *)

val comm_name : comm -> string
(** ["dedicated"] / ["inline"]. *)

val validate : float -> unit
(** Raises [Invalid_argument] unless the share is finite and in
    [0, 1]. *)

val lattice : ?steps:int -> unit -> float array
(** The quantized split lattice [0/steps; 1/steps; ...; steps/steps]
    (default 20 intervals, 21 points). The last point is exactly [1.0].
    Raises [Invalid_argument] when [steps < 1]. *)

val co_work :
  Sched.t -> gpu_stream:string -> cpu_stream:string -> ?deps:Sched.item list ->
  phase:string -> gpu_s:float -> cpu_s:float -> float -> Sched.item list
(** [co_work sched ... ~gpu_s ~cpu_s f] enqueues the split pair for one
    divisible work item: [f *. gpu_s] on [gpu_stream] when [f > 0] and
    [(1.0 -. f) *. cpu_s] on [cpu_stream] when [f < 1], both carrying
    the same [deps] and [phase]. [gpu_s] ([cpu_s]) is the full-item
    duration if the accelerator (host) ran all of it. Returns the
    enqueued items, for use as downstream deps; each item's device is
    its stream name (the {!Sched.work} default). *)

(** The Cardioid monodomain solver: reaction-diffusion on a 2D tissue
    grid with operator splitting. Diffusion is the memory-bound 5-point
    stencil; reaction is the compute-bound per-cell ionic update. The
    Sec 4.1 placement study is first-class.

    Hot state is SoA: the ionic state lives in one flat component-major
    {!Icoe_util.Fbuf} (plane [c] at [c*n + k]), the voltage field in
    another, and the reaction evaluates the stack-program kernel over
    per-chunk scratch slots from a {!Prog.Scratch} arena — steady-state
    steps allocate nothing, and results are bit-identical to the
    retained closure-tree reference. *)

type placement =
  | All_gpu
  | All_cpu
  | Split_cpu_gpu
      (** diffusion on the CPU, reaction on the GPU: the voltage field
          crosses the link twice per step — measured and rejected by the
          paper's team *)

val placement_name : placement -> string

val n_planes : int
(** State planes per cell: the {!Ionic.n_state} ionic variables plus
    the stimulus current. *)

type t = {
  nx : int;
  ny : int;
  n : int;  (** nx * ny *)
  dx : float;
  sigma : float;
  dt : float;
  state : Icoe_util.Fbuf.t;
      (** component-major ionic state: plane [c] at [c*n + k] *)
  v : Icoe_util.Fbuf.t;
  scratch : Icoe_util.Fbuf.t;
  kernel : Ionic.kernel;
  deriv : float array -> float array;
      (** boxed closure-tree derivative, the correctness oracle *)
  arena : Prog.Scratch.t;
}

val create :
  ?nx:int -> ?ny:int -> ?dx:float -> ?sigma:float -> ?dt:float ->
  ?variant:Ionic.variant -> unit -> t
(** Raises [Invalid_argument] unless [nx, ny >= 1] and [dt] is positive
    and finite. *)

val idx : t -> int -> int -> int

val stimulate : t -> ilo:int -> ihi:int -> jlo:int -> jhi:int -> amplitude:float -> unit
val clear_stimulus : t -> unit

val reaction_step : t -> unit
(** Chunk-parallel on the {!Icoe_par.Pool}; allocation-free in steady
    state and bit-identical to {!reaction_step_seq} and
    {!reaction_step_ref} for any pool size (disjoint per-cell writes,
    per-chunk scratch slots). *)

val reaction_step_seq : t -> unit
(** Serial reference path: the same chunk layout walked in order in the
    calling domain. *)

val reaction_step_ref : t -> unit
(** Boxed closure-tree reference retained from the row-per-cell layout;
    allocates per cell — correctness oracle only. *)

val diffusion_step : t -> unit
(** Row-parallel stencil into the scratch field, then a blit back. *)

val step : t -> unit
val run : t -> steps:int -> unit

type snapshot
(** Full tissue state: the ionic state planes plus the voltage field. *)

val snapshot : t -> snapshot
(** Deep copy of the mutable state, for checkpoint/restart
    ({!Icoe_fault.Checkpoint}). *)

val restore : t -> snapshot -> unit
(** Restore a snapshot taken from the same solver; stepping after a
    restore replays bit-identically. *)

val activated : t -> i:int -> j:int -> bool
(** Voltage above -20 mV (the excitation wavefront marker). *)

val time_per_step : ?variant:Ionic.variant -> cells:int -> placement -> float
(** Simulated seconds per step under a placement (the Sec 4.1 study). *)

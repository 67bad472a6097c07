(** minikin: the Cretin mini-app — batches of zones along a plasma
    gradient, each solved for steady-state populations, plus the Sec 4.3
    threading/memory performance model: CPU threads need a full per-zone
    workspace each (large models idle cores), the GPU threads within a
    zone and keeps only one workspace resident. *)

type zone = { cond : Ratematrix.conditions; mutable populations : float array }

type t = { model : Atomic.t; zones : zone array }

val create : ?nzones:int -> ?te0:float -> ?te1:float -> ?ne:float -> Atomic.t -> t
(** Zones along a temperature/density gradient. *)

val solve_all : t -> unit
(** Solve every zone's steady state (direct LU) into its populations. *)

val mean_excitation : zone -> float
(** Population-weighted mean level index; grows with temperature. *)

val node_speedup : Atomic.t -> float * float
(** (GPU/CPU node throughput ratio, fraction of CPU cores idled) — the
    5.75x / 60%-idle numbers of Sec 4.3. *)

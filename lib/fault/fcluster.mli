(** Fault-aware wrapper around {!Sparkle.Cluster}.

    Every charging primitive first runs the clean cost model, then
    consults the plan at the simulated window it occupied: straggler
    episodes stretch compute, link degradations stretch the network
    collectives, and a node failure inside a collective's window
    forces a {!Retry} cycle (backoff + re-execution, giving up after
    the policy's attempt budget).  All excess time lands in [fault:*]
    trace phases on the cluster's own tracer, so [breakdown]/rollups
    show exactly what the faults cost.  Deterministic: the only
    randomness is the plan and the retry jitter stream, both seeded
    from the plan. *)

type t

type stats = {
  injected : int;  (** collectives struck by a node failure *)
  recovered : int;  (** collectives that completed after retries *)
  retries : int;  (** re-executions performed *)
  gave_up : int;  (** collectives abandoned after the attempt budget *)
}

val create : ?policy:Retry.policy -> Plan.t -> Sparkle.Cluster.config -> t
val cluster : t -> Sparkle.Cluster.t
val elapsed : t -> float
val stats : t -> stats

val charge_compute : t -> flops:float -> unit
val charge_shuffle : t -> bytes:float -> unit
val charge_aggregate : t -> bytes_per_node:float -> unit

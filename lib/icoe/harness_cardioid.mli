val harness : Harness.t
(** This activity's entry in {!Harness_registry.all}. *)

val resilience_run :
  Icoe_fault.Plan.spec ->
  Icoe_fault.Plan.t * int * Icoe_fault.Checkpoint.report * bool
(** Run the whole-heart model under a seeded fault plan with
    Young/Daly checkpointing of a real (small) tissue. Returns (plan,
    checkpoint interval in steps, report, recovered final state
    bit-identical to a fault-free run). Deterministic for a given
    spec. Also used by the bench JSON emitter. *)

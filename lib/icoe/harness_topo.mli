(** Cross-generation topology study: SW4, ddcMD and KAVG re-priced on
    the hierarchical exascale interconnects (Frontier dragonfly,
    Grace-Hopper fat tree) against the flat Sierra baseline, contiguous
    vs scattered placement. *)

val harness : Harness.t
(** The ["topo"] study. *)

val table3 : Harness.t
val fig3 : Harness.t
val kavg : Harness.t
(** This activity's entries in {!Harness_registry.all}. *)

val fig8 : Harness.t
val table4 : Harness.t
(** This activity's entries in {!Harness_registry.all}. *)

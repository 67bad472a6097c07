val harness : Harness.t
(** This activity's entry in {!Harness_registry.all}. *)

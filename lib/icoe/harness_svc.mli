(** Machine-as-a-service: multi-tenant job-stream simulation over the
    reproduced workloads (generalizes the Sec 4.7 scheduler study to
    node allocations on the Sierra model). *)

val harness : Harness.t
(** The ["svc"] study. *)

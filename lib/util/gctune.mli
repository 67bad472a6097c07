(** GC parameter tuning for the bench harness.

    The zero-alloc kernel pass (PR 10) removes steady-state allocation
    from the hot loops, but setup phases still churn the minor heap and
    the default 256k-word minor heap forces frequent collections during
    warm-up. These knobs let a bench run size the GC to the workload
    without recompiling:

    - [ICOE_GC_MINOR_HEAP] — minor heap size in {e words}
      (e.g. [8388608] for a 64 MB minor heap on 64-bit);
    - [ICOE_GC_SPACE_OVERHEAD] — the major-GC [space_overhead] knob
      (higher trades memory for fewer major slices).

    Unset, non-numeric or non-positive values leave the corresponding
    parameter untouched, so the default behaviour is exactly the stock
    runtime. Applied once at bench startup; results are reported in the
    bench header so trajectories record the GC regime they ran under. *)

type settings = {
  minor_heap_words : int option;
  space_overhead : int option;
}

val describe : settings -> string
(** One-line human summary, ["gc: defaults"] when nothing is set. *)

val apply_env : unit -> settings
(** Parse the [ICOE_GC_*] variables (invalid values parse to "unset"),
    [Gc.set] the requested parameters and return what was applied. *)

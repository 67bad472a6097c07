(** A compact exp-heavy ionic membrane model, expressed through Melodee:
    an instantly-activating, h-inactivated fast inward current, a slowly
    activating outward (K-like) current, a gated slow leak, and a fixed
    anchoring leak. State vector: [v; h; n; w], input appended: [istim]. *)

val n_state : int
val iv : int
val istim_idx : int
val v_rest : float

(** How the rate functions are realized: exact libm expressions, fitted
    rational polynomials (coefficients in memory), or rational polynomials
    with compile-time-constant coefficients (no coefficient loads). *)
type variant = Libm | Rational | Rational_folded

val variant_name : variant -> string

val compile_variant : variant -> float array -> float array
(** Compiled derivative function over the state+input vector (boxed
    closure-tree form — allocates per call; retained as the correctness
    oracle for {!compile_kernel}). *)

type kernel = {
  progs : Melodee.program array;  (** one program per state derivative *)
  depth : int;  (** widest stack any program needs *)
}

val compile_kernel : variant -> kernel
(** The zero-alloc form of {!compile_variant}: stack programs executed
    over preallocated buffers, bit-identical to the closure tree. *)

val variant_flops : ?expensive_flops:float -> variant -> float
val variant_loads : variant -> int

val initial_state : unit -> float array
(** Rest state with gates at steady state. *)

val single_cell_trace : ?stim:float -> (float array -> float array) -> float array
(** Forward-Euler single-cell integration (dt = 0.02 ms, 20 000 steps),
    stimulated for the first 100 steps; returns the voltage trace (an
    action potential by default). *)

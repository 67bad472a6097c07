(** A real Umpire-style scratch-buffer arena for the zero-alloc kernels.

    {!Pool} is the {e simulated} cost model (it charges a clock);
    [Scratch] is its concrete counterpart: named {!Icoe_util.Fbuf}
    buffers cached by key, handed back on every steady-state
    acquisition, re-created only when the requested length changes.
    Kernels acquire all their scratch through an arena so iterating a
    converged problem size allocates nothing — the Umpire discipline
    SAMRAI's GPU port applies to device buffers (Sec 4.10.5), applied to
    our own hot loops.

    {b Not thread-safe.} Acquire buffers before entering a pooled
    region ({!Icoe_par.Pool} chunk bodies must not call {!get}); size
    per-chunk slots with [Icoe_par.Pool.num_chunks] up front. *)

type t

val create : unit -> t
(** An empty arena. *)

val get : t -> string -> int -> Icoe_util.Fbuf.t
(** [get t key n] returns the buffer cached under [key], creating (or
    re-creating, if the cached length differs from [n]) it on demand.
    Contents are {b stale} on reuse — zero-filled only when freshly
    created; callers that read before writing want {!get_zeroed}.
    Steady-state calls (same key, same length) allocate nothing. *)

val get_zeroed : t -> string -> int -> Icoe_util.Fbuf.t
(** {!get}, then fill with [0.0] — still allocation-free on reuse. *)

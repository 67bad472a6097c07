(** A hand-rolled OCaml 5 domain pool: the shared on-node execution layer
    under the hot engine kernels (the paper's "one machine abstraction
    every activity exploits" applied to our own reproduction).

    Design constraints, in order:

    {ol
    {- {b Determinism.} Chunk boundaries depend only on the iteration
       range (never on the pool size or on which domain runs a chunk),
       and callers combine per-chunk partials (written to the slot of
       {!parallel_for_chunks_i}'s chunk index) in ascending chunk
       order. A kernel routed through the pool therefore produces
       bit-identical floating-point results for {e any} [ICOE_DOMAINS]
       setting — the property the CI determinism diff enforces.}
    {- {b Reuse.} The global pool is created once (first use) and reused;
       worker domains block on a condition variable between jobs.}
    {- {b Graceful serial fallback.} A pool of size 1 never spawns
       domains and runs chunks in ascending order in the caller — the
       exact serial path.}}

    Work distribution inside one job is dynamic (workers claim chunk
    indices from an atomic counter), which balances load without
    affecting results: every chunk writes disjoint state or produces a
    partial stored at its chunk index.

    Nested calls (a pooled kernel invoked from inside a chunk) do not
    deadlock: the inner call detects the active job and degrades to the
    serial path, which is bit-identical anyway. *)

type t
(** A pool of domains. The caller participates in every job, so a pool
    of size [n] uses [n - 1] spawned worker domains. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] workers. [domains]
    defaults to the [ICOE_DOMAINS] environment variable if set to a
    positive integer, else [Domain.recommended_domain_count ()]; [1]
    means "exactly serial". [domains] is clamped to [\[1, 128\]].
    Pools must be {!shutdown} (or created via {!with_pool}) to let the
    process exit. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. After shutdown the pool runs
    everything serially. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exceptions). *)

val size : t -> int
(** Number of domains working on a job, caller included ([>= 1]). *)

val get : unit -> t
(** The global shared pool, created at the global default size on first
    use and torn down [at_exit]. Three engine kernels route through it:
    the sw4 stencil, the ddcMD forces and the LDA E-step, the ones whose
    pooled path beats the serial one at the sizes the harnesses run. *)

val in_parallel_job : unit -> bool
(** [true] while the calling domain is executing a chunk of a pool job
    (any execution path: worker domain, submitting caller, or the
    serial fallback — so the answer does not depend on
    [ICOE_DOMAINS]). Layers with non-thread-safe state use this to
    reject calls from worker chunks; {!Icoe_obs.Metrics} raises
    [Invalid_argument] on any registry access made under it. *)

val default_chunk : int -> int
(** [default_chunk n] is the chunk size used when [?chunk] is omitted:
    [max 16 ((n + 63) / 64)] — at most 64 chunks, at least 16 iterations
    each. A function of the range length only, never of the pool. *)

val parallel_for_chunks :
  ?pool:t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for_chunks ~lo ~hi f] calls [f clo chi] once per chunk
    with [lo <= clo < chi <= hi]; the callback owns the half-open range
    [\[clo, chi)]. [f] must write only state disjoint from other chunks
    (and must not touch the metrics registry — counters are not
    atomic). Empty ranges are no-ops. *)

val num_chunks : ?chunk:int -> lo:int -> hi:int -> unit -> int
(** The number of chunks {!parallel_for_chunks} (and friends) will split
    [\[lo, hi)] into — a function of the range and chunk size only,
    never of the pool. Zero-alloc kernels use it to size per-chunk
    partial slots before entering the pooled region. *)

val parallel_for_chunks_i :
  ?pool:t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [parallel_for_chunks_i ~lo ~hi f] is {!parallel_for_chunks} with the
    chunk index: [f k clo chi] for the [k]-th chunk ([0 <= k <]
    {!num_chunks}). The index lets allocation-free kernels write their
    partials into a preallocated slot per chunk instead of returning
    values (which would box floats); callers reduce the slots in
    ascending [k] afterwards to keep the deterministic combine order. *)

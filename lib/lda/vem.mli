(** Variational EM for Latent Dirichlet Allocation, executed on the
    sparkle substrate the way SparkPlug ran it: documents in RDD
    partitions; each iteration broadcasts the topic-word parameters, runs
    the E-step as a mapPartitions, aggregates sufficient statistics
    all-to-one, and updates lambda on the driver. The simulated-time
    breakdown of those phases is Fig 2.

    Hot state — lambda, E[log beta], sufficient statistics — is flat
    row-major k x vocab {!Icoe_util.Fbuf} storage (entry (t, w) at
    [t*vocab + w]); E-step scratch comes from a {!Prog.Scratch} arena so
    steady-state batches allocate nothing. *)

val digamma : float -> float

type model = {
  k : int;
  vocab : int;
  alpha : float;  (** symmetric document-topic prior *)
  eta : float;  (** topic-word prior *)
  lambda : Icoe_util.Fbuf.t;  (** k x vocab variational params, row-major *)
  arena : Prog.Scratch.t;  (** per-chunk E-step scratch slabs *)
}

val init : rng:Icoe_util.Rng.t -> k:int -> vocab:int -> unit -> model

val elog_beta : model -> Icoe_util.Fbuf.t
(** E[log beta] from lambda (digamma differences), flat k x vocab. *)

val e_step_doc :
  model -> Icoe_util.Fbuf.t -> Corpus.doc -> Icoe_util.Fbuf.t -> float
(** Variational E-step for one document, accumulating into a flat
    k x vocab sufficient-statistics buffer; returns the document's
    likelihood proxy. *)

val e_step_docs :
  model -> Icoe_util.Fbuf.t -> Corpus.doc array -> Icoe_util.Fbuf.t -> float
(** E-step over a batch, document-parallel on the {!Icoe_par.Pool}:
    per-chunk statistics slabs are reduced into the accumulator in
    ascending chunk order, so the result is bit-identical to
    {!e_step_docs_seq} for any pool size. Returns the batch
    log-likelihood proxy. *)

val e_step_docs_seq :
  model -> Icoe_util.Fbuf.t -> Corpus.doc array -> Icoe_util.Fbuf.t -> float
(** Serial reference path with the same chunk layout and reduction
    order as {!e_step_docs}. *)

type iteration_result = { loglik : float }

val train : ?iters:int -> model -> Corpus.doc Sparkle.Rdd.t -> float array
(** Run EM; returns the per-iteration log-likelihood trace. *)

val topics : model -> float array array
(** Normalized topic-word distributions (cold path; materializes rows). *)

val recovery_score : model -> float array array -> float
(** Mean best-cosine match of learned topics against ground truth. *)

(** Variational EM for Latent Dirichlet Allocation, executed on the
    sparkle substrate exactly the way SparkPlug ran it: documents live in
    RDD partitions; each EM iteration broadcasts the topic-word parameters,
    runs the E-step as a mapPartitions, aggregates sufficient statistics
    all-to-one, and updates lambda on the driver. The simulated-time
    breakdown of those phases is Fig 2.

    Hot state is SoA: lambda, E[log beta] and the sufficient statistics
    are flat row-major k x vocab {!Icoe_util.Fbuf} Bigarrays (entry
    (t, w) at [t*vocab + w]); the per-document E-step runs over
    per-chunk gamma/digamma/phi/statistics slabs drawn from a
    {!Prog.Scratch} arena — a steady-state batch allocates nothing.
    The arithmetic is unchanged, so results are bit-identical to the
    nested-array layout it replaced. *)

module Fbuf = Icoe_util.Fbuf
module Pool = Icoe_par.Pool

(* [@inline always] + iterative shift: the recursive tuple-returning
   shift allocated per call, and without flambda a non-inlined digamma
   boxes its float return — at k calls per document sweep iteration
   that was most of the E-step's garbage. Same operations in the same
   order as the recursive form, so values are bit-identical. *)
let[@inline always] digamma x0 =
  (* shift into the asymptotic regime, then the standard series *)
  let x = ref x0 and acc = ref 0.0 in
  while !x < 6.0 do
    acc := !acc -. (1.0 /. !x);
    x := !x +. 1.0
  done;
  let x = !x and acc = !acc in
  let inv = 1.0 /. x in
  let inv2 = inv *. inv in
  acc +. log x -. (0.5 *. inv)
  -. (inv2 *. ((1.0 /. 12.0) -. (inv2 *. ((1.0 /. 120.0) -. (inv2 /. 252.0)))))

type model = {
  k : int;
  vocab : int;
  alpha : float;  (** symmetric document-topic prior *)
  eta : float;  (** topic-word prior *)
  lambda : Fbuf.t;  (** k x vocab variational params, row-major *)
  arena : Prog.Scratch.t;  (** per-chunk E-step scratch slabs *)
}

let init ~(rng : Icoe_util.Rng.t) ~k ~vocab () =
  (* row-by-row draw order matches the nested-array init it replaced *)
  let lambda = Fbuf.init (k * vocab) (fun _ -> 0.5 +. Icoe_util.Rng.float rng) in
  { k; vocab; alpha = 0.1; eta = 0.01; lambda; arena = Prog.Scratch.create () }

(* expected log beta from lambda: E[log beta_kw] = digamma(lambda_kw) -
   digamma(sum_w lambda_kw) *)
let elog_beta m =
  let out = Fbuf.create (m.k * m.vocab) in
  for t = 0 to m.k - 1 do
    let base = t * m.vocab in
    let total = ref 0.0 in
    for w = 0 to m.vocab - 1 do
      total := !total +. Fbuf.get m.lambda (base + w)
    done;
    let dt = digamma !total in
    for w = 0 to m.vocab - 1 do
      Fbuf.set out (base + w) (digamma (Fbuf.get m.lambda (base + w)) -. dt)
    done
  done;
  out

let m_docs =
  Icoe_obs.Metrics.counter ~help:"Documents processed by the E-step"
    "lda_estep_docs_total"

let m_iters =
  Icoe_obs.Metrics.counter ~help:"Distributed EM iterations"
    "lda_em_iterations_total"

let m_elbo =
  Icoe_obs.Metrics.gauge ~help:"ELBO proxy of the last EM iteration" "lda_elbo"

(* E-step for one document over flat buffers with base offsets: gamma
   and dg are k-slots, phi is an nw x k slab, stats a k x vocab slab —
   all owned by the caller's chunk, so this allocates nothing. Returns
   the document ELBO-ish likelihood proxy. *)
let e_step_doc_into m (elogb : Fbuf.t) (d : Corpus.doc) ~gamma ~goff ~dg
    ~dgoff ~phi ~phioff ~stats ~soff =
  let k = m.k and vocab = m.vocab in
  let nw = Array.length d.Corpus.words in
  let g0 = m.alpha +. (float_of_int (Corpus.doc_length d) /. float_of_int k) in
  for t = 0 to k - 1 do
    Fbuf.set gamma (goff + t) g0
  done;
  let loglik = ref 0.0 in
  for _iter = 1 to 20 do
    for t = 0 to k - 1 do
      Fbuf.set dg (dgoff + t) (digamma (Fbuf.get gamma (goff + t)));
      Fbuf.set gamma (goff + t) m.alpha
    done;
    for wi = 0 to nw - 1 do
      let w = d.Corpus.words.(wi) in
      let cnt = float_of_int d.Corpus.counts.(wi) in
      let row = phioff + (wi * k) in
      (* phi_wk ~ exp(E[log theta_k] + E[log beta_kw]) *)
      let mx = ref neg_infinity in
      for t = 0 to k - 1 do
        let v = Fbuf.get dg (dgoff + t) +. Fbuf.get elogb ((t * vocab) + w) in
        Fbuf.set phi (row + t) v;
        if v > !mx then mx := v
      done;
      let z = ref 0.0 in
      for t = 0 to k - 1 do
        let v = exp (Fbuf.get phi (row + t) -. !mx) in
        Fbuf.set phi (row + t) v;
        z := !z +. v
      done;
      for t = 0 to k - 1 do
        let v = Fbuf.get phi (row + t) /. !z in
        Fbuf.set phi (row + t) v;
        Fbuf.set gamma (goff + t) (Fbuf.get gamma (goff + t) +. (cnt *. v))
      done
    done
  done;
  (* accumulate sufficient statistics and likelihood proxy *)
  for wi = 0 to nw - 1 do
    let w = d.Corpus.words.(wi) in
    let cnt = float_of_int d.Corpus.counts.(wi) in
    let row = phioff + (wi * k) in
    let word_ll = ref 0.0 in
    for t = 0 to k - 1 do
      let pv = Fbuf.get phi (row + t) in
      let si = soff + (t * vocab) + w in
      Fbuf.set stats si (Fbuf.get stats si +. (cnt *. pv));
      word_ll := !word_ll +. (pv *. Fbuf.get elogb ((t * vocab) + w))
    done;
    loglik := !loglik +. (cnt *. !word_ll)
  done;
  !loglik

(* Documents per pool chunk. Fixed (never pool-derived) so the chunk
   layout — and hence the order sufficient statistics are reduced in —
   is identical for every ICOE_DOMAINS setting. *)
let estep_doc_chunk = 4

let max_doc_words (docs : Corpus.doc array) =
  Array.fold_left (fun m d -> max m (Array.length d.Corpus.words)) 1 docs

(* Per-chunk scratch slabs for a batch: gamma/dg (k each), phi (sized by
   the longest document in the batch), and a local-statistics slab per
   chunk. Acquired before the pooled region (the arena is not
   thread-safe); steady-state batches of the same shape reuse them. *)
let estep_scratch m ~nchunks ~maxnw =
  let k = m.k in
  let gamma = Prog.Scratch.get m.arena "estep-gamma" (nchunks * k) in
  let dg = Prog.Scratch.get m.arena "estep-dg" (nchunks * k) in
  let phi = Prog.Scratch.get m.arena "estep-phi" (nchunks * maxnw * k) in
  let local =
    Prog.Scratch.get_zeroed m.arena "estep-local" (nchunks * k * m.vocab)
  in
  (gamma, dg, phi, local)

(** Variational E-step for one document, accumulating into a flat
    k x vocab statistics buffer; returns the document's likelihood
    proxy. Uses the model's chunk-0 scratch slot. *)
let e_step_doc m elogb (d : Corpus.doc) (stats : Fbuf.t) =
  let nw = max 1 (Array.length d.Corpus.words) in
  let gamma = Prog.Scratch.get m.arena "estep-gamma1" m.k in
  let dg = Prog.Scratch.get m.arena "estep-dg1" m.k in
  let phi = Prog.Scratch.get m.arena "estep-phi1" (nw * m.k) in
  e_step_doc_into m elogb d ~gamma ~goff:0 ~dg ~dgoff:0 ~phi ~phioff:0
    ~stats ~soff:0

(* chunk body: documents [lo, hi) into chunk k's slabs; the chunk's
   log-likelihood partial lands in its slot of [lls] *)
let estep_chunk m elogb (docs : Corpus.doc array) ~maxnw ~gamma ~dg ~phi
    ~local ~lls k lo hi =
  let goff = k * m.k and dgoff = k * m.k in
  let phioff = k * maxnw * m.k in
  let soff = k * m.k * m.vocab in
  let ll = ref 0.0 in
  for di = lo to hi - 1 do
    ll :=
      !ll
      +. e_step_doc_into m elogb docs.(di) ~gamma ~goff ~dg ~dgoff ~phi
           ~phioff ~stats:local ~soff
  done;
  Fbuf.set lls k !ll

(** E-step over a batch of documents, document-parallel on the domain
    pool: each chunk accumulates into its own statistics slab and the
    partials are added into [stats] in ascending chunk order, so the
    result is bit-identical to {!e_step_docs_seq} for any pool size.
    Returns the batch log-likelihood proxy. *)
let reduce_estep m ~local ~lls ~nchunks (stats : Fbuf.t) =
  let kw = m.k * m.vocab in
  let ll = ref 0.0 in
  for c = 0 to nchunks - 1 do
    let base = c * kw in
    for i = 0 to kw - 1 do
      Fbuf.set stats i (Fbuf.get stats i +. Fbuf.get local (base + i))
    done;
    ll := !ll +. Fbuf.get lls c
  done;
  !ll

let e_step_docs m elogb (docs : Corpus.doc array) (stats : Fbuf.t) =
  let n = Array.length docs in
  Icoe_obs.Metrics.inc ~by:(float_of_int n) m_docs;
  let nchunks = Pool.num_chunks ~chunk:estep_doc_chunk ~lo:0 ~hi:n () in
  let maxnw = max_doc_words docs in
  let gamma, dg, phi, local = estep_scratch m ~nchunks ~maxnw in
  let lls = Prog.Scratch.get m.arena "estep-lls" (max 1 nchunks) in
  Pool.parallel_for_chunks_i ~chunk:estep_doc_chunk ~lo:0 ~hi:n
    (fun k lo hi ->
      estep_chunk m elogb docs ~maxnw ~gamma ~dg ~phi ~local ~lls k lo hi);
  reduce_estep m ~local ~lls ~nchunks stats

(** Serial reference path: same chunk layout and reduction order as
    {!e_step_docs}, entirely in the calling domain. *)
let e_step_docs_seq m elogb (docs : Corpus.doc array) (stats : Fbuf.t) =
  let n = Array.length docs in
  Icoe_obs.Metrics.inc ~by:(float_of_int n) m_docs;
  let nchunks = Pool.num_chunks ~chunk:estep_doc_chunk ~lo:0 ~hi:n () in
  let maxnw = max_doc_words docs in
  let gamma, dg, phi, local = estep_scratch m ~nchunks ~maxnw in
  let lls = Prog.Scratch.get m.arena "estep-lls" (max 1 nchunks) in
  for k = 0 to nchunks - 1 do
    let lo = k * estep_doc_chunk in
    estep_chunk m elogb docs ~maxnw ~gamma ~dg ~phi ~local ~lls k lo
      (min n (lo + estep_doc_chunk))
  done;
  reduce_estep m ~local ~lls ~nchunks stats

type iteration_result = { loglik : float }

(** One distributed EM iteration over an RDD of documents. *)
let em_iteration m (rdd : Corpus.doc Sparkle.Rdd.t) =
  let cluster = rdd.Sparkle.Rdd.cluster in
  let kw = m.k * m.vocab in
  let lambda_bytes = float_of_int kw *. 8.0 in
  (* broadcast current topics *)
  Sparkle.Cluster.charge_broadcast cluster ~bytes:lambda_bytes;
  let elogb = elog_beta m in
  (* E-step as mapPartitions producing (stats, loglik) partials; the
     flop density per token is ~20 inner iterations x k topics x ~8 ops *)
  let flops_per_elem = 20.0 *. float_of_int m.k *. 8.0 *. 30.0 in
  let partials =
    Sparkle.Rdd.map_partitions ~flops_per_elem
      (fun docs ->
        let stats = Fbuf.create kw in
        let ll = e_step_docs m elogb docs stats in
        [| (stats, ll) |])
      rdd
  in
  (* aggregate sufficient statistics all-to-one *)
  let zero = (Fbuf.create kw, 0.0) in
  let stats, loglik =
    Sparkle.Rdd.reduce ~bytes_per_partial:lambda_bytes ~init:zero
      ~combine:(fun (sa, la) (sb, lb) ->
        for i = 0 to kw - 1 do
          Fbuf.set sa i (Fbuf.get sa i +. Fbuf.get sb i)
        done;
        (sa, la +. lb))
      partials
  in
  (* M-step on the driver *)
  for i = 0 to kw - 1 do
    Fbuf.set m.lambda i (m.eta +. Fbuf.get stats i)
  done;
  Icoe_obs.Metrics.inc m_iters;
  Icoe_obs.Metrics.set m_elbo loglik;
  { loglik }

(** Run [iters] EM iterations; returns the log-likelihood trace. *)
let train ?(iters = 10) m rdd =
  Array.init iters (fun _ -> (em_iteration m rdd).loglik)

(** Normalized topic-word distributions from lambda. *)
let topics m =
  Array.init m.k (fun t ->
      let base = t * m.vocab in
      let z = ref 0.0 in
      for w = 0 to m.vocab - 1 do
        z := !z +. Fbuf.get m.lambda (base + w)
      done;
      Array.init m.vocab (fun w -> Fbuf.get m.lambda (base + w) /. !z))

(** Greedy matching score against ground-truth topics: mean, over true
    topics, of the best cosine similarity among learned topics. 1.0 =
    perfect recovery. *)
let recovery_score m (truth : float array array) =
  let learned = topics m in
  let cosine a b =
    let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
    Array.iteri
      (fun i x ->
        dot := !dot +. (x *. b.(i));
        na := !na +. (x *. x);
        nb := !nb +. (b.(i) *. b.(i)))
      a;
    !dot /. (sqrt !na *. sqrt !nb)
  in
  let scores =
    Array.map
      (fun t -> Array.fold_left (fun best l -> max best (cosine t l)) 0.0 learned)
      truth
  in
  Icoe_util.Stats.mean scores

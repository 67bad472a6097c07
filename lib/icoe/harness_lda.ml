(** Fig 2: SparkPlug LDA, default vs optimized stack (Sec 4.2). *)

open Icoe_util

let fig2 () =
  (* real small-scale LDA training for correctness evidence *)
  let rng = Rng.create 42 in
  let corpus = Lda.Corpus.generate ~ndocs:160 ~rng () in
  let cluster = Sparkle.Cluster.create (Sparkle.Cluster.default_config ~nodes:4 ()) in
  let rdd = Sparkle.Rdd.of_array cluster corpus.Lda.Corpus.docs in
  let model = Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true ~vocab:corpus.Lda.Corpus.vocab () in
  let trace = Lda.Vem.train ~iters:10 model rdd in
  let recovery = Lda.Vem.recovery_score model corpus.Lda.Corpus.topic_word in
  (* paper-scale breakdown; the cluster charges every stage through its
     span tracer, so both runs are exportable to chrome://tracing *)
  let slow = Lda.Fig2.run ~optimized:false Lda.Fig2.wikipedia in
  let fast = Lda.Fig2.run ~optimized:true Lda.Fig2.wikipedia in
  Harness.record_trace "fig2/default" (Sparkle.Cluster.trace slow);
  Harness.record_trace "fig2/optimized" (Sparkle.Cluster.trace fast);
  let t = Table.create ~title:"Fig 2: LDA aggregate time breakdown (s, 32 nodes, Wikipedia-scale)"
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
      [ "phase"; "default"; "optimized" ] in
  List.iter
    (fun phase ->
      Table.add_row t
        [ phase;
          Table.fcell ~prec:1 (Hwsim.Clock.phase slow.Sparkle.Cluster.clock phase);
          Table.fcell ~prec:1 (Hwsim.Clock.phase fast.Sparkle.Cluster.clock phase) ])
    [ "compute"; "shuffle"; "aggregate"; "broadcast" ];
  Table.add_row t
    [ "TOTAL";
      Table.fcell ~prec:1 (Sparkle.Cluster.elapsed slow);
      Table.fcell ~prec:1 (Sparkle.Cluster.elapsed fast) ];
  Harness.section "Fig 2 — SparkPlug LDA default vs optimized"
    (Fmt.str
       "real run: 10 EM iterations, loglik %.0f -> %.0f, topic recovery %.2f\n%s\
        speedup %.2fx (paper: 'more than 2X')\n"
       trace.(0) trace.(9) recovery (Table.render t)
       (Sparkle.Cluster.elapsed slow /. Sparkle.Cluster.elapsed fast))

let harness =
  Harness.make ~id:"fig2" ~description:"SparkPlug LDA default vs optimized"
    ~tags:[ "figure"; "activity:sparkplug"; "traced" ]
    fig2

(* Tests for the mini-Spark substrate and the LDA workload (Fig 2). *)

let mk ?(optimized = false) ?(nodes = 8) () =
  Sparkle.Cluster.create
    (if optimized then Sparkle.Cluster.optimized_config ~nodes ()
     else Sparkle.Cluster.default_config ~nodes ())

(* --- rdd --- *)

let test_rdd_partitioning () =
  let c = mk () in
  let r = Sparkle.Rdd.of_array c (Array.init 100 (fun i -> i)) in
  Alcotest.(check int) "count preserved" 100 (Sparkle.Rdd.count r);
  Alcotest.(check bool) "multiple partitions" true (Sparkle.Rdd.num_partitions r > 1);
  let back = Sparkle.Rdd.collect r in
  Array.sort compare back;
  Alcotest.(check (array int)) "collect roundtrip" (Array.init 100 (fun i -> i)) back

let test_rdd_map_and_charge () =
  let c = mk () in
  let r = Sparkle.Rdd.of_array c (Array.init 50 (fun i -> i)) in
  let r2 = Sparkle.Rdd.map_partitions (Array.map (fun x -> x * 2)) r in
  let total = Sparkle.Rdd.reduce ~init:0 ~combine:( + ) r2 in
  Alcotest.(check int) "sum of doubles" (49 * 50) total;
  Alcotest.(check bool) "compute time charged" true
    (Hwsim.Clock.phase c.Sparkle.Cluster.clock "compute" > 0.0);
  Alcotest.(check bool) "aggregate charged" true
    (Hwsim.Clock.phase c.Sparkle.Cluster.clock "aggregate" > 0.0)

(* --- cost model (Fig 2 levers) --- *)

let test_adaptive_shuffle_cheaper () =
  let slow = mk () and fast = mk ~optimized:true () in
  Sparkle.Cluster.charge_shuffle slow ~bytes:1e9;
  Sparkle.Cluster.charge_shuffle fast ~bytes:1e9;
  Alcotest.(check bool) "adaptive shuffle faster" true
    (Hwsim.Clock.phase fast.Sparkle.Cluster.clock "shuffle"
    < Hwsim.Clock.phase slow.Sparkle.Cluster.clock "shuffle" /. 2.0)

let test_tree_aggregate_scales () =
  (* flat aggregate cost grows linearly with node count, tree grows as
     log: at 128 nodes the gap is large *)
  let flat = mk ~nodes:128 () and tree = mk ~optimized:true ~nodes:128 () in
  Sparkle.Cluster.charge_aggregate flat ~bytes_per_node:50e6;
  Sparkle.Cluster.charge_aggregate tree ~bytes_per_node:50e6;
  Alcotest.(check bool) "tree much faster at scale" true
    (Hwsim.Clock.phase tree.Sparkle.Cluster.clock "aggregate" *. 4.0
    < Hwsim.Clock.phase flat.Sparkle.Cluster.clock "aggregate")

let test_tree_aggregate_single_node () =
  (* regression: at nodes=1 the tree round count used to be
     ceil(log2 1) = 0, charging zero seconds; the clamp makes one-node
     tree and flat aggregates cost the same positive time *)
  let flat = mk ~nodes:1 () and tree = mk ~optimized:true ~nodes:1 () in
  let flat_s = Sparkle.Cluster.aggregate_seconds flat ~bytes_per_node:50e6 in
  let tree_s = Sparkle.Cluster.aggregate_seconds tree ~bytes_per_node:50e6 in
  Alcotest.(check bool) "tree charges time at nodes=1" true (tree_s > 0.0);
  (* tree pays one combine round; flat pays one node's ingest — the tree
     configuration also has the optimized JVM, so it can only be faster,
     never free *)
  Sparkle.Cluster.charge_aggregate tree ~bytes_per_node:50e6;
  Alcotest.(check (float 1e-12)) "charge matches cost function" tree_s
    (Hwsim.Clock.phase tree.Sparkle.Cluster.clock "aggregate");
  Alcotest.(check bool) "flat positive too" true (flat_s > 0.0)

let test_jvm_gc_drag () =
  let slow = mk () and fast = mk ~optimized:true () in
  Sparkle.Cluster.charge_compute slow ~flops:1e12;
  Sparkle.Cluster.charge_compute fast ~flops:1e12;
  Alcotest.(check bool) "optimized JVM computes faster" true
    (Sparkle.Cluster.elapsed fast < Sparkle.Cluster.elapsed slow)

(* --- data broker --- *)

let test_databroker_beats_default_shuffle () =
  (* the Sec 4.4 exploration: broker-mediated shuffle skips JVM
     serialization, beating the default sort-spill path *)
  let c = mk ~nodes:32 () in
  let db = Sparkle.Databroker.create c in
  let bytes = 50e9 and tuples = 1_000_000 in
  let broker = Sparkle.Databroker.shuffle_cost db ~bytes ~tuples in
  let default_cluster = mk ~nodes:32 () in
  Sparkle.Cluster.charge_shuffle default_cluster ~bytes;
  let default_t = Hwsim.Clock.phase default_cluster.Sparkle.Cluster.clock "shuffle" in
  Alcotest.(check bool)
    (Fmt.str "broker %.2f s < default %.2f s" broker default_t)
    true (broker < default_t)

(* --- lda --- *)

let test_digamma_recurrence () =
  (* digamma(x+1) = digamma(x) + 1/x *)
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-8))
        (Fmt.str "recurrence at %.2f" x)
        (Lda.Vem.digamma x +. (1.0 /. x))
        (Lda.Vem.digamma (x +. 1.0)))
    [ 0.3; 1.0; 2.5; 7.0; 20.0 ];
  (* digamma(1) = -euler_gamma *)
  Alcotest.(check (float 1e-6)) "digamma(1)" (-0.5772156649) (Lda.Vem.digamma 1.0)

let test_corpus_generation () =
  let rng = Icoe_util.Rng.create 101 in
  let c = Lda.Corpus.generate ~ndocs:50 ~rng () in
  Alcotest.(check int) "doc count" 50 (Array.length c.Lda.Corpus.docs);
  Alcotest.(check int) "vocab" 240 c.Lda.Corpus.vocab;
  Alcotest.(check int) "true topics" 6 c.Lda.Corpus.k_true;
  Alcotest.(check bool) "tokens present" true (Lda.Corpus.tokens c > 1000);
  (* topics are normalized *)
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-9)) "topic row sums 1" 1.0 (Icoe_util.Stats.sum row))
    c.Lda.Corpus.topic_word

let prop_lda_estep_par_bits_exact =
  (* the pooled batch E-step must match the serial reference to the last
     bit — statistics buffer and likelihood — for random corpora, under
     whatever ICOE_DOMAINS the suite runs with *)
  QCheck.Test.make ~name:"pooled E-step bit-identical to serial" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let ndocs = 1 + Icoe_util.Rng.int rng 30 in
      let corpus = Lda.Corpus.generate ~ndocs ~rng () in
      let m =
        Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true
          ~vocab:corpus.Lda.Corpus.vocab ()
      in
      let elogb = Lda.Vem.elog_beta m in
      let kw = corpus.Lda.Corpus.k_true * corpus.Lda.Corpus.vocab in
      let s_par = Icoe_util.Fbuf.create kw in
      let s_seq = Icoe_util.Fbuf.create kw in
      let ll_par = Lda.Vem.e_step_docs m elogb corpus.Lda.Corpus.docs s_par in
      let ll_seq =
        Lda.Vem.e_step_docs_seq m elogb corpus.Lda.Corpus.docs s_seq
      in
      Int64.equal (Int64.bits_of_float ll_par) (Int64.bits_of_float ll_seq)
      && Array.for_all2
           (fun x y ->
             Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           (Icoe_util.Fbuf.to_array s_par)
           (Icoe_util.Fbuf.to_array s_seq))

let test_lda_likelihood_increases () =
  let rng = Icoe_util.Rng.create 102 in
  let corpus = Lda.Corpus.generate ~ndocs:120 ~rng () in
  let cluster = mk ~nodes:4 () in
  let rdd = Sparkle.Rdd.of_array cluster corpus.Lda.Corpus.docs in
  let m = Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true ~vocab:corpus.Lda.Corpus.vocab () in
  let trace = Lda.Vem.train ~iters:8 m rdd in
  (* likelihood proxy improves over training *)
  Alcotest.(check bool)
    (Fmt.str "ll %f -> %f" trace.(0) trace.(7))
    true
    (trace.(7) > trace.(0));
  Alcotest.(check bool) "all finite" true (Array.for_all Float.is_finite trace)

let test_lda_recovers_topics () =
  let rng = Icoe_util.Rng.create 103 in
  let corpus = Lda.Corpus.generate ~ndocs:240 ~rng () in
  let cluster = mk ~nodes:4 () in
  let rdd = Sparkle.Rdd.of_array cluster corpus.Lda.Corpus.docs in
  let m = Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true ~vocab:corpus.Lda.Corpus.vocab () in
  ignore (Lda.Vem.train ~iters:15 m rdd);
  let score = Lda.Vem.recovery_score m corpus.Lda.Corpus.topic_word in
  Alcotest.(check bool) (Fmt.str "recovery %.3f > 0.8" score) true (score > 0.8)

let test_fig2_shape () =
  (* default vs optimized stack on the Wikipedia-scale LDA workload:
     optimized is > 2x faster overall and every major phase shrinks *)
  let slow = Lda.Fig2.run ~optimized:false Lda.Fig2.wikipedia in
  let fast = Lda.Fig2.run ~optimized:true Lda.Fig2.wikipedia in
  let t_slow = Sparkle.Cluster.elapsed slow in
  let t_fast = Sparkle.Cluster.elapsed fast in
  Alcotest.(check bool)
    (Fmt.str "overall %.2fx > 2x" (t_slow /. t_fast))
    true
    (t_slow /. t_fast > 2.0);
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " shrinks") true
        (Hwsim.Clock.phase fast.Sparkle.Cluster.clock phase
        < Hwsim.Clock.phase slow.Sparkle.Cluster.clock phase))
    [ "compute"; "shuffle"; "aggregate" ];
  (* shuffle dominates the default stack, as profiled in the paper *)
  Alcotest.(check bool) "shuffle dominant in default" true
    (Hwsim.Clock.phase slow.Sparkle.Cluster.clock "shuffle"
    > 0.4 *. t_slow)

let () =
  Alcotest.run "sparkle"
    [
      ( "rdd",
        [
          Alcotest.test_case "partitioning" `Quick test_rdd_partitioning;
          Alcotest.test_case "map+charge" `Quick test_rdd_map_and_charge;
        ] );
      ( "cost",
        [
          Alcotest.test_case "adaptive shuffle" `Quick test_adaptive_shuffle_cheaper;
          Alcotest.test_case "tree aggregate" `Quick test_tree_aggregate_scales;
          Alcotest.test_case "tree aggregate at nodes=1" `Quick
            test_tree_aggregate_single_node;
          Alcotest.test_case "jvm drag" `Quick test_jvm_gc_drag;
        ] );
      ( "databroker",
        [
          Alcotest.test_case "beats default shuffle" `Quick test_databroker_beats_default_shuffle;
        ] );
      ( "lda",
        [
          Alcotest.test_case "digamma" `Quick test_digamma_recurrence;
          Alcotest.test_case "corpus" `Quick test_corpus_generation;
          QCheck_alcotest.to_alcotest prop_lda_estep_par_bits_exact;
          Alcotest.test_case "likelihood increases" `Slow test_lda_likelihood_increases;
          Alcotest.test_case "topic recovery" `Slow test_lda_recovers_topics;
          Alcotest.test_case "fig2 shape" `Slow test_fig2_shape;
        ] );
    ]

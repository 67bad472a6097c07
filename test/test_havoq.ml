(* Tests for the HavoqGT analog: RMAT generation, BFS variants, validation,
   and the Table 2 machine model. *)

open Havoq

let rng () = Icoe_util.Rng.create 91

(* --- graph --- *)

let test_csr_construction () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  Alcotest.(check int) "edges doubled" 8 g.Graph.m;
  Alcotest.(check int) "deg 0" 2 (Graph.degree g 0);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1)

let test_rmat_size_and_skew () =
  let g = Graph.rmat ~rng:(rng ()) ~scale:10 () in
  Alcotest.(check int) "vertices" 1024 g.Graph.n;
  Alcotest.(check bool) "edges near 16x n" true
    (g.Graph.m > 24_000 && g.Graph.m <= 32_768);
  (* RMAT is skewed: the max degree dwarfs the mean *)
  let maxdeg = ref 0 in
  for v = 0 to g.Graph.n - 1 do
    maxdeg := max !maxdeg (Graph.degree g v)
  done;
  let mean = float_of_int g.Graph.m /. float_of_int g.Graph.n in
  Alcotest.(check bool)
    (Fmt.str "skew: max %d vs mean %.1f" !maxdeg mean)
    true
    (float_of_int !maxdeg > 6.0 *. mean)

let test_er_not_skewed () =
  let g = Graph.erdos_renyi ~rng:(rng ()) ~n:1024 ~edges:16_384 () in
  let maxdeg = ref 0 in
  for v = 0 to g.Graph.n - 1 do
    maxdeg := max !maxdeg (Graph.degree g v)
  done;
  let mean = float_of_int g.Graph.m /. float_of_int g.Graph.n in
  Alcotest.(check bool) "ER max degree modest" true
    (float_of_int !maxdeg < 3.0 *. mean)

(* --- bfs --- *)

let biggest_component_source g =
  (* pick the highest-degree vertex: on RMAT it is in the big component *)
  let best = ref 0 in
  for v = 0 to g.Graph.n - 1 do
    if Graph.degree g v > Graph.degree g !best then best := v
  done;
  !best

let test_topdown_reaches_component () =
  let g = Graph.rmat ~rng:(rng ()) ~scale:9 () in
  let src = biggest_component_source g in
  let s = Bfs.top_down g ~src in
  Alcotest.(check bool) "reaches most vertices" true
    (float_of_int s.Bfs.reached > 0.5 *. float_of_int g.Graph.n);
  Alcotest.(check bool) "valid tree" true (Bfs.validate g ~src s)

let test_hybrid_matches_topdown_reach () =
  let g = Graph.rmat ~rng:(rng ()) ~scale:9 () in
  let src = biggest_component_source g in
  let td = Bfs.top_down g ~src in
  let hy = Bfs.hybrid g ~src in
  Alcotest.(check int) "same reach" td.Bfs.reached hy.Bfs.reached;
  Alcotest.(check bool) "hybrid valid" true (Bfs.validate g ~src hy);
  Alcotest.(check bool) "same depth" true (hy.Bfs.iterations <= td.Bfs.iterations + 2)

let test_hybrid_traverses_fewer_edges () =
  (* the direction-optimizing payoff on skewed graphs *)
  let g = Graph.rmat ~rng:(rng ()) ~scale:11 () in
  let src = biggest_component_source g in
  let td = Bfs.top_down g ~src in
  let hy = Bfs.hybrid g ~src in
  Alcotest.(check bool) "switched directions" true (hy.Bfs.switches > 0);
  Alcotest.(check bool)
    (Fmt.str "fewer edges: %d vs %d" hy.Bfs.edges_traversed td.Bfs.edges_traversed)
    true
    (hy.Bfs.edges_traversed < td.Bfs.edges_traversed)

let test_disconnected_vertex () =
  (* a vertex with no edges: BFS from it reaches only itself *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2) ] in
  let s = Bfs.top_down g ~src:4 in
  Alcotest.(check int) "reached only source" 1 s.Bfs.reached;
  Alcotest.(check bool) "valid" true (Bfs.validate g ~src:4 s)

let prop_bfs_valid_on_random_graphs =
  QCheck.Test.make ~name:"hybrid BFS valid on random graphs" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = Icoe_util.Rng.create seed in
      let g = Graph.erdos_renyi ~rng:r ~n:200 ~edges:600 () in
      let src = Icoe_util.Rng.int r 200 in
      let s = Bfs.hybrid g ~src in
      Bfs.validate g ~src s)

(* --- table 2 model --- *)

let test_table2_scales () =
  List.iter2
    (fun m (name, _, _, scale, _) ->
      Alcotest.(check string) "row order" name m.Perf.name;
      Alcotest.(check int) (name ^ " scale") scale (Perf.max_scale m))
    Perf.machines Perf.paper_rows

let test_table2_gteps_shape () =
  List.iter2
    (fun m (name, _, _, _, gteps) ->
      let modelled = Perf.gteps m in
      let ratio = modelled /. gteps in
      Alcotest.(check bool)
        (Fmt.str "%s gteps %.3f vs paper %.3f" name modelled gteps)
        true
        (ratio > 0.8 && ratio < 1.25))
    Perf.machines Perf.paper_rows

let test_table2_monotone_progress () =
  (* the historical story: each later machine strictly increases GTEPS *)
  let rec go = function
    | a :: (b :: _ as rest) ->
        if b.Perf.year >= a.Perf.year && b.Perf.nodes >= a.Perf.nodes then
          Alcotest.(check bool) "progress" true (Perf.gteps b >= Perf.gteps a);
        go rest
    | _ -> ()
  in
  go Perf.machines

let () =
  Alcotest.run "havoq"
    [
      ( "graph",
        [
          Alcotest.test_case "csr" `Quick test_csr_construction;
          Alcotest.test_case "rmat skew" `Quick test_rmat_size_and_skew;
          Alcotest.test_case "er uniform" `Quick test_er_not_skewed;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "topdown" `Quick test_topdown_reaches_component;
          Alcotest.test_case "hybrid reach" `Quick test_hybrid_matches_topdown_reach;
          Alcotest.test_case "hybrid fewer edges" `Quick test_hybrid_traverses_fewer_edges;
          Alcotest.test_case "disconnected" `Quick test_disconnected_vertex;
          QCheck_alcotest.to_alcotest prop_bfs_valid_on_random_graphs;
        ] );
      ( "table2",
        [
          Alcotest.test_case "scales" `Quick test_table2_scales;
          Alcotest.test_case "gteps" `Quick test_table2_gteps_shape;
          Alcotest.test_case "monotone" `Quick test_table2_monotone_progress;
        ] );
    ]

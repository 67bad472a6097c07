(* Tests for the Icoe_obs.Metrics registry: counter/gauge/histogram
   semantics, label ordering, snapshot determinism and the JSON
   exposition. All tests use private registries so they neither see nor
   disturb the engines' default one. *)

module M = Icoe_obs.Metrics

let check_float = Alcotest.(check (float 1e-12))

(* --- counters --- *)

let test_counter_semantics () =
  let r = M.create () in
  let c = M.counter ~registry:r "requests_total" in
  check_float "starts at zero" 0.0 (M.counter_value c);
  M.inc c;
  M.inc c;
  M.inc ~by:2.5 c;
  check_float "accumulates" 4.5 (M.counter_value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.inc: negative increment") (fun () ->
      M.inc ~by:(-1.0) c);
  (* get-or-create returns the same underlying cell *)
  let c' = M.counter ~registry:r "requests_total" in
  M.inc c';
  check_float "same handle" 5.5 (M.counter_value c)

let test_type_clash_rejected () =
  let r = M.create () in
  ignore (M.counter ~registry:r "x_total");
  Alcotest.(check bool) "gauge over counter raises" true
    (match M.gauge ~registry:r "x_total" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- gauges --- *)

let test_gauge_semantics () =
  let r = M.create () in
  let g = M.gauge ~registry:r "residual" in
  M.set g 0.25;
  check_float "set" 0.25 (M.gauge_value g);
  M.set g (-3.0);
  check_float "goes down" (-3.0) (M.gauge_value g);
  Alcotest.(check (option (float 1e-12))) "value by name" (Some (-3.0))
    (M.value ~registry:r "residual")

(* --- histograms --- *)

let test_histogram_semantics () =
  let r = M.create () in
  let h = M.histogram ~registry:r "latency" in
  for i = 1 to 100 do
    M.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (M.histogram_count h);
  check_float "sum" 5050.0 (M.histogram_sum h);
  (* percentiles over the retained window (linear interpolation) *)
  check_float "p50" 50.5 (M.quantile h 0.5);
  check_float "p0" 1.0 (M.quantile h 0.0);
  check_float "p100" 100.0 (M.quantile h 1.0)

let test_histogram_window_bounded () =
  let r = M.create () in
  let h = M.histogram ~registry:r "w" in
  (* overflow the ring: only the most recent window_capacity observations
     feed the quantiles, but count/sum see everything *)
  let n = M.window_capacity + 500 in
  for i = 1 to n do
    M.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count sees all" n (M.histogram_count h);
  Alcotest.(check bool) "quantile window dropped the oldest" true
    (M.quantile h 0.0 >= 500.0)

(* --- labels --- *)

let test_label_order_irrelevant () =
  let r = M.create () in
  let a = M.counter ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "fam" in
  let b = M.counter ~registry:r ~labels:[ ("a", "1"); ("b", "2") ] "fam" in
  M.inc a;
  M.inc b;
  check_float "one family member" 2.0 (M.counter_value a);
  match M.snapshot ~registry:r () with
  | [ s ] ->
      Alcotest.(check (list (pair string string)))
        "labels sorted by key"
        [ ("a", "1"); ("b", "2") ]
        s.M.labels
  | l -> Alcotest.failf "expected one sample, got %d" (List.length l)

let test_family_snapshot_order () =
  (* regression for the typed label comparator in the snapshot sort: a
     family's members come back in lexicographic (key, value) order,
     with a member whose label list is a strict prefix sorting first *)
  let r = M.create () in
  List.iter
    (fun labels -> M.set (M.gauge ~registry:r ~labels "fam") 1.0)
    [
      [ ("host", "b") ];
      [ ("host", "a"); ("rank", "x") ];
      [ ("host", "a") ];
    ];
  Alcotest.(check (list (list (pair string string))))
    "members sorted by labels"
    [
      [ ("host", "a") ];
      [ ("host", "a"); ("rank", "x") ];
      [ ("host", "b") ];
    ]
    (List.map (fun s -> s.M.labels) (M.snapshot ~registry:r ()))

(* --- snapshot determinism --- *)

(* The same final state must snapshot identically no matter the order in
   which metrics were registered or updated; values come from a fixed
   Rng seed, and the observation sequence is replayed in two different
   interleavings. *)
let test_snapshot_deterministic () =
  let build order =
    let rng = Icoe_util.Rng.create 77 in
    let vals = Array.init 40 (fun _ -> Icoe_util.Rng.uniform rng 0.0 10.0) in
    let r = M.create () in
    let register () =
      ( M.counter ~registry:r ~labels:[ ("k", "a") ] "n_total",
        M.gauge ~registry:r "level",
        M.histogram ~registry:r "dist" )
    in
    let c, g, h =
      match order with
      | `Forward -> register ()
      | `Reversed ->
          let h = M.histogram ~registry:r "dist" in
          let g = M.gauge ~registry:r "level" in
          let c = M.counter ~registry:r ~labels:[ ("k", "a") ] "n_total" in
          (c, g, h)
    in
    Array.iter
      (fun v ->
        M.inc ~by:v c;
        M.set g v;
        M.observe h v)
      vals;
    (M.snapshot ~registry:r (), M.to_json ~registry:r ())
  in
  let s1, j1 = build `Forward in
  let s2, j2 = build `Reversed in
  Alcotest.(check bool) "snapshots equal" true (s1 = s2);
  Alcotest.(check string) "json equal" j1 j2

let test_reset () =
  let r = M.create () in
  let c = M.counter ~registry:r "c" in
  let h = M.histogram ~registry:r "h" in
  M.inc ~by:7.0 c;
  M.observe h 3.0;
  M.reset ~registry:r ();
  check_float "counter zeroed" 0.0 (M.counter_value c);
  Alcotest.(check int) "histogram emptied" 0 (M.histogram_count h);
  M.inc c;
  check_float "handle survives reset" 1.0 (M.counter_value c)

(* --- exposition --- *)

let contains ~needle hay = Astring.String.is_infix ~affix:needle hay

(* Minimal JSON well-formedness scanner: strings with escapes, balanced
   {} / [] outside strings. Enough to catch broken quoting/structure
   without a JSON dependency (CI additionally runs jq over the real
   artifacts). *)
let json_well_formed s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun ch ->
      if !in_str then
        if !esc then esc := false
        else if ch = '\\' then esc := true
        else if ch = '"' then in_str := false
        else ()
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let test_json_roundtrip () =
  let r = M.create () in
  let c = M.counter ~registry:r ~labels:[ ("q", {|a"b|}) ] "c_total" in
  M.inc ~by:1.0e-17 c;
  let g = M.gauge ~registry:r "g" in
  M.set g (-0.125);
  let h = M.histogram ~registry:r "h" in
  M.observe h 4.0;
  let j = M.to_json ~registry:r () in
  Alcotest.(check bool) "well-formed" true (json_well_formed j);
  Alcotest.(check bool) "escapes label quote" true
    (contains ~needle:{|a\"b|} j);
  (* %.17g float round-trip: the exact counter value must be recoverable *)
  Alcotest.(check bool) "float round-trips" true
    (contains ~needle:(Fmt.str "%.17g" 1.0e-17) j);
  check_float "reread" 1.0e-17
    (float_of_string (Fmt.str "%.17g" (M.counter_value c)))

let test_json_control_char_labels () =
  (* regression: label values used to go through the Prometheus escaper,
     which leaves tab and other control bytes raw — invalid JSON *)
  let r = M.create () in
  let value = "tab\there\x01ctl\nnl\"q" in
  let c = M.counter ~registry:r ~labels:[ ("k", value) ] "c_total" in
  M.inc c;
  let doc = M.to_json ~registry:r () in
  Alcotest.(check bool) "no raw control bytes besides line breaks" true
    (String.for_all (fun ch -> ch = '\n' || Char.code ch >= 0x20) doc);
  match Icoe_util.Json.parse doc with
  | Error msg -> Alcotest.failf "to_json is not valid JSON: %s" msg
  | Ok j ->
      let label =
        Option.bind (Icoe_util.Json.list_member "metrics" j) (function
          | [ m ] ->
              Option.bind (Icoe_util.Json.member "labels" m)
                (Icoe_util.Json.string_member "k")
          | _ -> None)
      in
      Alcotest.(check (option string)) "label round-trips" (Some value) label

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          Alcotest.test_case "type clash" `Quick test_type_clash_rejected;
        ] );
      ("gauge", [ Alcotest.test_case "semantics" `Quick test_gauge_semantics ]);
      ( "histogram",
        [
          Alcotest.test_case "semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "window bounded" `Quick
            test_histogram_window_bounded;
        ] );
      ( "labels",
        [
          Alcotest.test_case "order irrelevant" `Quick test_label_order_irrelevant;
          Alcotest.test_case "family snapshot order" `Quick
            test_family_snapshot_order;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot deterministic" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "json" `Quick test_json_roundtrip;
          Alcotest.test_case "json control-char labels" `Quick
            test_json_control_char_labels;
        ] );
    ]

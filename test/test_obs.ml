(* Tests for the Icoe_obs.Metrics registry: counter/gauge/histogram
   semantics, label ordering, snapshot determinism, exposition formats,
   and the exception-safety of the scoped timer. All tests use private
   registries so they neither see nor disturb the engines' default one. *)

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

(* --- enable/disable --- *)

let test_disabled_registry_is_noop () =
  let r = M.create () in
  let c = M.counter ~registry:r "c" in
  let h = M.histogram ~registry:r "h" in
  M.set_enabled ~registry:r false;
  Alcotest.(check bool) "reports disabled" false (M.is_enabled ~registry:r ());
  M.inc c;
  M.observe h 1.0;
  let v = M.time ~registry:r "t" (fun () -> 42) in
  Alcotest.(check int) "time still runs f" 42 v;
  check_float "counter frozen" 0.0 (M.counter_value c);
  Alcotest.(check int) "histogram frozen" 0 (M.histogram_count h);
  M.set_enabled ~registry:r true;
  M.inc c;
  check_float "re-enabled" 1.0 (M.counter_value c)

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
    (M.snapshot ~registry:r (), M.to_prometheus ~registry:r (),
     M.to_json ~registry:r ())
  in
  let s1, p1, j1 = build `Forward in
  let s2, p2, j2 = build `Reversed in
  Alcotest.(check bool) "snapshots equal" true (s1 = s2);
  Alcotest.(check string) "prometheus equal" p1 p2;
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

let test_prometheus_format () =
  let r = M.create () in
  let c =
    M.counter ~registry:r ~help:"how many" ~labels:[ ("m", "cg") ] "it_total"
  in
  M.inc ~by:3.0 c;
  let h = M.histogram ~registry:r "lat" in
  M.observe h 0.5;
  M.observe h 2.0;
  let text = M.to_prometheus ~registry:r () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle text))
    [
      "# HELP it_total how many";
      "# TYPE it_total counter";
      {|it_total{m="cg"} 3|};
      "# TYPE lat histogram";
      {|lat_bucket{le="+Inf"} 2|};
      "lat_count 2";
      "lat_sum 2.5";
    ]

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

(* --- scoped timer --- *)

exception Boom

let test_time_exception_safety () =
  let r = M.create () in
  (* deterministic clock: each reading advances 0.25 s *)
  let now = ref 0.0 in
  M.set_clock (fun () ->
      let t = !now in
      now := t +. 0.25;
      t);
  let raised =
    match
      M.time ~registry:r "work_seconds" (fun () -> raise Boom)
    with
    | () -> false
    | exception Boom -> true
  in
  M.set_clock Unix.gettimeofday;
  Alcotest.(check bool) "exception re-raised" true raised;
  let h = M.histogram ~registry:r "work_seconds" in
  Alcotest.(check int) "duration recorded despite raise" 1
    (M.histogram_count h);
  check_float "clock delta" 0.25 (M.histogram_sum h)

let test_time_records_duration () =
  let r = M.create () in
  let now = ref 100.0 in
  M.set_clock (fun () ->
      let t = !now in
      now := t +. 1.5;
      t);
  let v = M.time ~registry:r "ok_seconds" (fun () -> "done") in
  M.set_clock Unix.gettimeofday;
  Alcotest.(check string) "returns f's value" "done" v;
  let h = M.histogram ~registry:r "ok_seconds" in
  check_float "observed delta" 1.5 (M.histogram_sum h)

(* --- bucket boundaries --- *)

let test_bucket_boundaries () =
  (* exact power-of-two boundaries land in the bucket they bound:
     bucket k > 0 covers (lo * 2^(k-1), lo * 2^k], upper-inclusive *)
  for k = 1 to M.n_buckets - 1 do
    let upper = M.bucket_lo *. Float.pow 2.0 (float_of_int k) in
    Alcotest.(check int)
      (Fmt.str "boundary 2^%d lands in its own bucket" k)
      k (M.bucket_index upper);
    Alcotest.(check int)
      (Fmt.str "just above 2^%d spills to the next" k)
      (k + 1)
      (M.bucket_index (Float.succ upper))
  done;
  Alcotest.(check int) "at bucket_lo" 0 (M.bucket_index M.bucket_lo);
  Alcotest.(check int) "below bucket_lo" 0 (M.bucket_index (M.bucket_lo /. 4.0));
  Alcotest.(check int) "zero" 0 (M.bucket_index 0.0);
  Alcotest.(check int) "huge overflows" M.n_buckets (M.bucket_index 1e40)

let test_bucket_index_matches_upper () =
  (* the index function and the bound function agree: every observation
     is <= its bucket's upper bound and > the previous bucket's *)
  let vals = [ 2.3e-12; 1e-9; 0.000244140625; 0.5; 1.0; 3.14; 1e6 ] in
  List.iter
    (fun v ->
      let k = M.bucket_index v in
      Alcotest.(check bool) (Fmt.str "%g <= upper(%d)" v k) true
        (v <= M.bucket_upper k);
      if k > 0 then
        Alcotest.(check bool) (Fmt.str "%g > upper(%d)" v (k - 1)) true
          (v > M.bucket_upper (k - 1)))
    vals

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
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "bucket index vs upper" `Quick
            test_bucket_index_matches_upper;
        ] );
      ( "labels",
        [
          Alcotest.test_case "order irrelevant" `Quick test_label_order_irrelevant;
          Alcotest.test_case "family snapshot order" `Quick
            test_family_snapshot_order;
        ] );
      ( "registry",
        [
          Alcotest.test_case "disable" `Quick test_disabled_registry_is_noop;
          Alcotest.test_case "snapshot deterministic" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_format;
          Alcotest.test_case "json" `Quick test_json_roundtrip;
          Alcotest.test_case "json control-char labels" `Quick
            test_json_control_char_labels;
        ] );
      ( "timer",
        [
          Alcotest.test_case "exception safety" `Quick
            test_time_exception_safety;
          Alcotest.test_case "duration" `Quick test_time_records_duration;
        ] );
    ]

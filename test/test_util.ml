(* Tests for the shared utility layer: deterministic RNG, statistics,
   table rendering, the JSON writer. *)

open Icoe_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let before = Rng.float parent in
  (* drawing from the child must not perturb a copy of the parent *)
  let parent2 = Rng.create 1 in
  let _child2 = Rng.split parent2 in
  ignore (Rng.float child);
  let before2 = Rng.float parent2 in
  check_float "parent unperturbed by child draws" before before2

let test_rng_uniform_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r 2.0 5.0 in
    Alcotest.(check bool) "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_int_range () =
  let r = Rng.create 4 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let k = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_gaussian_moments () =
  let r = Rng.create 5 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs m < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (s -. 1.0) < 0.02)

let test_exponential_mean () =
  let r = Rng.create 6 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential r ~rate:2.0) in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (Stats.mean xs -. 0.5) < 0.02)

let test_categorical () =
  let r = Rng.create 7 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let k = Rng.categorical r w in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight category never drawn" 0 counts.(1);
  Alcotest.(check bool) "ratio near 3" true
    (let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
     ratio > 2.5 && ratio < 3.5)

let test_shuffle_permutation () =
  let r = Rng.create 8 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "sum" 10.0 (Stats.sum a);
  check_float "median" 2.5 (Stats.median a);
  let lo, hi = Stats.min_max a in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi;
  check_float "variance" (5.0 /. 3.0) (Stats.variance a)

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  check_float "p0" 0.0 (Stats.percentile a 0.0);
  check_float "p50" 50.0 (Stats.percentile a 0.5);
  check_float "p100" 100.0 (Stats.percentile a 1.0)

let test_rel_l2 () =
  let a = [| 1.0; 0.0 |] and b = [| 1.0; 0.0 |] in
  check_float "identical" 0.0 (Stats.rel_l2_error a b)

let test_table_render () =
  let t = Table.create ~title:"t" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 4 = "== t")

let test_table_addf_pipe_cells () =
  (* regression: addf used to split the formatted row on '|', so a cell
     value containing a pipe shifted every later column and tripped the
     add_row arity assert; it now splits on the non-printable Table.sep *)
  let t = Table.create ~title:"pipes" [ "expr"; "n" ] in
  Table.addf t ("%s" ^^ "\x1f" ^^ "%d") "a|b" 7;
  Alcotest.(check char) "sep is the unit separator" '\x1f' Table.sep.[0];
  let s = Table.render t in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "pipe cell survives intact" true (contains "a|b");
  Alcotest.(check bool) "second column rendered" true (contains "7")

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng floats in [0,1)" ~count:200
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r in
      x >= 0.0 && x < 1.0)

(* --- JSON writer --- *)

let test_json_escape_control_chars () =
  (* regression: every control char below 0x20 must be escaped, not
     passed through to break the document it is embedded in *)
  Alcotest.(check string) "named + numeric escapes"
    {|a\nb\tc\u0001\"\\ \r\u0008\u000c|}
    (Json.escape "a\nb\tc\x01\"\\ \r\b\012");
  for c = 0 to 0x1f do
    let escaped = Json.escape (String.make 1 (Char.chr c)) in
    Alcotest.(check bool)
      (Printf.sprintf "control 0x%02x escaped" c)
      true
      (String.length escaped >= 2 && escaped.[0] = '\\')
  done;
  (* the escaped form embeds into a valid JSON string literal *)
  let all = String.init 0x20 Char.chr in
  let doc = {|{"s": "|} ^ Json.escape all ^ {|"}|} in
  Alcotest.(check (option string)) "round-trips through the reader"
    (Some all)
    (Json.string_member "s" (Json.parse_exn doc))

let test_json_to_string () =
  let doc =
    Json.Obj
      [
        ("id", Json.Str "a\"b");
        ("rows", Json.Arr [ Json.Obj [ ("v", Json.Num 0.1); ("n", Json.Num nan) ] ]);
        ("empty", Json.Arr []);
        ("ok", Json.Bool true);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check string) "layout"
    "{\n  \"id\": \"a\\\"b\",\n  \"rows\": [\n    {\"v\": \
     0.10000000000000001, \"n\": null}\n  ],\n  \"empty\": [],\n  \"ok\": \
     true\n}\n"
    s;
  match Json.parse_exn s with
  | Json.Obj [ _; ("rows", Json.Arr [ row ]); _; _ ] ->
      Alcotest.(check (option (float 0.0))) "%.17g reads back exactly"
        (Some 0.1) (Json.float_member "v" row);
      Alcotest.(check bool) "non-finite is null" true
        (Json.member "n" row = Some Json.Null)
  | _ -> Alcotest.fail "unexpected shape"

let prop_json_escape_roundtrip =
  QCheck.Test.make ~name:"escape round-trips any bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Json.parse ("\"" ^ Json.escape s ^ "\"") = Ok (Json.Str s))

(* --- JSON reader fuzzing: any input gives Ok or Error, never an
   exception; parse_exn raises only Parse_error --- *)

let parse_is_total s =
  (match Json.parse s with Ok _ | Error _ -> true)
  && match Json.parse_exn s with
     | _ -> true
     | exception Json.Parse_error _ -> true

(* bytes that steer the parser into every branch: structure, literals,
   numbers, escapes, surrogates and raw control characters *)
let json_alphabet =
  {|{}[]":,. -+0123456789eEtrufalsn\/bu"dD8AFx |} ^ "\\u\t\n\x00\x1f\xff"

let json_like =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size ~gen:(oneofl (List.of_seq (String.to_seq json_alphabet)))
        (0 -- 48))

(* a valid document with one byte replaced or the tail cut off *)
let mutated_doc =
  let doc =
    {|{"id": "a\"b\u00e9\ud83d\ude00", "rows": [1, -2.5e-3, true, null, {"k": []}], "ok": false}|}
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      let n = String.length doc in
      oneof
        [
          map2
            (fun i c -> String.mapi (fun j d -> if i = j then c else d) doc)
            (0 -- (n - 1)) char;
          map (fun k -> String.sub doc 0 k) (0 -- n);
        ])

let prop_json_parse_total name arb =
  QCheck.Test.make ~name ~count:1000 arb parse_is_total

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_float_unit;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "rel l2" `Quick test_rel_l2;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "addf pipe cells" `Quick test_table_addf_pipe_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape control chars" `Quick
            test_json_escape_control_chars;
          Alcotest.test_case "to_string" `Quick test_json_to_string;
          QCheck_alcotest.to_alcotest prop_json_escape_roundtrip;
          QCheck_alcotest.to_alcotest
            (prop_json_parse_total "parse total on random bytes"
               QCheck.(string_of_size Gen.(0 -- 64)));
          QCheck_alcotest.to_alcotest
            (prop_json_parse_total "parse total on json-like bytes" json_like);
          QCheck_alcotest.to_alcotest
            (prop_json_parse_total "parse total on mutated documents"
               mutated_doc);
        ] );
    ]

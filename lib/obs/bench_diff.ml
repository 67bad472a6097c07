(* The BENCH document layout and the regression gate over two of them.
   See the interface for the verdict rules; nothing here knows which
   sections exist. *)

type klass = Sim | Wall

type verdict = Ok | Improved | Warn | Regression | Added | Removed

type measurement = {
  section : string;
  name : string;
  value : float;
  unit : string;
  klass : klass;
  higher_better : bool;
}

type row = {
  section : string;
  name : string;
  klass : klass;
  base : float option;
  cur : float option;
  delta : float;
  verdict : verdict;
}

type result = {
  rows : row list;
  regressions : int;
  warnings : int;
  improved : int;
}

let verdict_name = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Warn -> "WARN"
  | Regression -> "REGRESSION"
  | Added -> "added"
  | Removed -> "removed"

let first_by key l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x -> (not (Hashtbl.mem seen (key x))) && (Hashtbl.add seen (key x) (); true))
    l

let key (m : measurement) = (m.section, m.name)

(* One entry per name, in order of first appearance; a repeated check
   holds only if every occurrence does. *)
let merge_checks l =
  List.map
    (fun (name, _) -> (name, List.for_all (fun (n, ok) -> n <> name || ok) l))
    (first_by fst l)

let document ~id ~icoe_domains rows checks =
  let open Icoe_util.Json in
  let row (m : measurement) =
    Obj
      [
        ("section", Str m.section); ("name", Str m.name); ("value", Num m.value);
        ("unit", Str m.unit);
        ("class", Str (match m.klass with Sim -> "sim" | Wall -> "wall"));
        ("higher_better", Bool m.higher_better);
      ]
  in
  let check (name, ok) = Obj [ ("name", Str name); ("ok", Bool ok) ] in
  Obj
    [
      ("id", Str id);
      ("icoe_domains", Num (float_of_int icoe_domains));
      ("rows", Arr (List.map row (first_by key rows)));
      ("checks", Arr (List.map check (merge_checks checks)));
    ]

let entries field j =
  Option.value ~default:[] (Icoe_util.Json.list_member field j)

let flatten j =
  let open Icoe_util.Json in
  List.filter_map
    (fun r ->
      match (string_member "section" r, string_member "name" r, float_member "value" r) with
      | Some section, Some name, Some value ->
          Some
            {
              section;
              name;
              value;
              unit = Option.value ~default:"" (string_member "unit" r);
              klass = (if string_member "class" r = Some "wall" then Wall else Sim);
              higher_better = bool_member "higher_better" r = Some true;
            }
      | _ -> None)
    (entries "rows" j)

let checks j =
  let open Icoe_util.Json in
  merge_checks
    (List.filter_map
       (fun c ->
         Option.map
           (fun name -> (name, bool_member "ok" c = Some true))
           (string_member "name" c))
       (entries "checks" j))

(* Relative bands past which a row is judged worse (or better):
   deterministic simulated rows are held tight, host wall-clock rows
   loose, since runner timing noise is not a regression. *)
let sim_threshold = 0.05
let wall_threshold = 0.5

(* Judge one measurement pair. [delta] is the relative change in the
   worse-direction sense: positive means worse. *)
let judge (b : measurement option) (c : measurement option) : row =
  let m = Option.get (if Option.is_some b then b else c) in
  let value = Option.map (fun (m : measurement) -> m.value) in
  let delta, verdict =
    match (b, c) with
    | None, _ -> (0.0, Added)
    | _, None -> (0.0, Removed)
    | Some b, Some c ->
        let d =
          if b.value = 0.0 then 0.0 else (c.value -. b.value) /. Float.abs b.value
        in
        let worse = if b.higher_better then -.d else d in
        let th = match b.klass with Sim -> sim_threshold | Wall -> wall_threshold in
        let verdict =
          if b.value = 0.0 && c.value = 0.0 then Ok
          else if b.value = 0.0 then
            (* a signal appeared where the baseline had none: surface it,
               but a zero baseline gives no meaningful relative delta *)
            Warn
          else if worse > th then
            match b.klass with Sim -> Regression | Wall -> Warn
          else if worse < -.th then Improved
          else Ok
        in
        (worse, verdict)
  in
  { section = m.section; name = m.name; klass = m.klass; base = value b;
    cur = value c; delta; verdict }

(* A check must hold in the current file, and one the baseline carried
   must not disappear. Shown as 1 (holds) / 0 (failed). *)
let judge_check name base cur =
  let num = Option.map (fun ok -> if ok then 1.0 else 0.0) in
  let verdict =
    match (base, cur) with
    | _, Some false | Some _, None -> Regression
    | None, _ -> Added
    | Some false, Some true -> Improved
    | Some true, Some true -> Ok
  in
  let delta =
    match (num base, num cur) with Some b, Some c -> b -. c | _ -> 0.0
  in
  { section = "check"; name; klass = Sim; base = num base; cur = num cur;
    delta; verdict }

(* Pair two keyed lists: every baseline entry in order, then the
   current-only entries in order. A repeated key pairs its first
   occurrences. *)
let pair key base cur =
  let find l k = List.find_opt (fun x -> key x = k) l in
  List.map (fun b -> (Some b, find cur (key b))) (first_by key base)
  @ List.filter_map
      (fun c -> if find base (key c) = None then Some (None, Some c) else None)
      (first_by key cur)

let diff ~base ~cur =
  let rows =
    List.map (fun (b, c) -> judge b c) (pair key (flatten base) (flatten cur))
    @ List.map
        (fun (b, c) ->
          let name = fst (Option.get (if Option.is_some b then b else c)) in
          judge_check name (Option.map snd b) (Option.map snd c))
        (pair fst (checks base) (checks cur))
  in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  {
    rows;
    regressions = count Regression;
    warnings = count Warn;
    improved = count Improved;
  }

let opt_str = function Some v -> Fmt.str "%.6g" v | None -> "-"

(** Verdict table; hides plain [Ok] rows unless [all]. *)
let table ?(all = false) result =
  let open Icoe_util in
  let t =
    Table.create ~title:"bench diff"
      ~aligns:[| Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
                 Table.Left |]
      [ "section"; "row"; "base"; "current"; "delta"; "verdict" ]
  in
  let interesting r =
    match r.verdict with
    | Ok -> all
    | Improved | Warn | Regression | Added | Removed -> true
  in
  List.iter
    (fun r ->
      if interesting r then
        Table.add_row t
          [
            r.section;
            r.name;
            opt_str r.base;
            opt_str r.cur;
            (match (r.base, r.cur) with
            | Some _, Some _ -> Fmt.str "%+.1f%%" (100.0 *. r.delta)
            | _ -> "-");
            verdict_name r.verdict;
          ])
    result.rows;
  t

let summary result =
  Fmt.str "%d rows: %d regression(s), %d warning(s), %d improved, %d ok/other"
    (List.length result.rows)
    result.regressions result.warnings result.improved
    (List.length result.rows - result.regressions - result.warnings
   - result.improved)

let exit_code result = if result.regressions > 0 then 3 else 0

let run_files ?(all = false) ~base ~cur () =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let parse path =
    match Icoe_util.Json.parse (read path) with
    | Ok j -> j
    | Error msg -> failwith (Fmt.str "%s: JSON parse error %s" path msg)
  in
  let base_j = parse base and cur_j = parse cur in
  let result = diff ~base:base_j ~cur:cur_j in
  let rendered = Icoe_util.Table.render (table ~all result) in
  (result, rendered ^ summary result ^ "\n")

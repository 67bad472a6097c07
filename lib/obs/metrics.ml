(** Metrics registry: counters, gauges, histograms, labeled families,
    deterministic snapshot/reset, JSON and table exposition. See
    metrics.mli for the story. *)

let window_capacity = 1024

type hist_state = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  window : float array;  (* ring of the last [window_capacity] observations *)
  mutable wlen : int;
  mutable wpos : int;
}

let new_hist () =
  {
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    window = Array.make window_capacity 0.0;
    wlen = 0;
    wpos = 0;
  }

let hist_reset h =
  h.count <- 0;
  h.sum <- 0.0;
  h.vmin <- infinity;
  h.vmax <- neg_infinity;
  h.wlen <- 0;
  h.wpos <- 0

(* --- registry --- *)

type payload =
  | Pcounter of float ref
  | Pgauge of float ref
  | Phist of hist_state

type metric = {
  m_name : string;
  m_labels : (string * string) list;  (* sorted by key *)
  m_help : string;
  payload : payload;
}

type registry = (string, metric) Hashtbl.t
type counter = float ref
type gauge = float ref
type histogram = hist_state

let create () : registry = Hashtbl.create 64

(** The process-wide registry the engines record into. *)
let default = create ()

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let render_labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

let key name labels = name ^ render_labels labels

let kind_name = function
  | Pcounter _ -> "counter"
  | Pgauge _ -> "gauge"
  | Phist _ -> "histogram"

(* The registry (Hashtbl + unsynchronized float cells) must never be
   touched from inside a pool worker chunk; enforce the pool.mli
   contract instead of silently corrupting counts. *)
let check_not_in_job op =
  if Icoe_par.Pool.in_parallel_job () then
    invalid_arg
      ("Metrics." ^ op
     ^ ": called from inside a Pool parallel job; worker chunks must not \
        touch the metrics registry")

let register registry ~help ~labels name make match_payload =
  check_not_in_job "register";
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt registry k with
  | Some m -> (
      match match_payload m.payload with
      | Some v -> v
      | None ->
          invalid_arg
            (Fmt.str "Metrics: %s already registered as a %s" k
               (kind_name m.payload)))
  | None ->
      let payload, v = make () in
      Hashtbl.add registry k
        { m_name = name; m_labels = labels; m_help = help; payload };
      v

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels name
    (fun () ->
      let r = ref 0.0 in
      (Pcounter r, r))
    (function Pcounter r -> Some r | _ -> None)

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels name
    (fun () ->
      let r = ref 0.0 in
      (Pgauge r, r))
    (function Pgauge r -> Some r | _ -> None)

let histogram ?(registry = default) ?(help = "") name =
  register registry ~help ~labels:[] name
    (fun () ->
      let h = new_hist () in
      (Phist h, h))
    (function Phist h -> Some h | _ -> None)

(* --- hot path --- *)

let inc ?(by = 1.0) t =
  check_not_in_job "inc";
  if by < 0.0 then invalid_arg "Metrics.inc: negative increment";
  t := !t +. by

let set t v =
  check_not_in_job "set";
  t := v

let observe h v =
  check_not_in_job "observe";
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  h.window.(h.wpos) <- v;
  h.wpos <- (h.wpos + 1) mod window_capacity;
  if h.wlen < window_capacity then h.wlen <- h.wlen + 1

(* --- reading back --- *)

let counter_value t = !t
let gauge_value t = !t
let histogram_count h = h.count
let histogram_sum h = h.sum

let quantile h q =
  if h.wlen = 0 then 0.0
  else
    let a = Array.sub h.window 0 h.wlen in
    Icoe_util.Stats.percentile_sorted (Icoe_util.Stats.presort a) q

let value ?(registry = default) ?(labels = []) name =
  match Hashtbl.find_opt registry (key name (sort_labels labels)) with
  | None -> None
  | Some m -> (
      match m.payload with
      | Pcounter r | Pgauge r -> Some !r
      | Phist h -> Some h.sum)

(* --- snapshot --- *)

type histogram_summary = {
  count : int;
  sum : float;
  hmin : float;
  hmax : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value = Counter of float | Gauge of float | Histogram of histogram_summary

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

let summarize (h : hist_state) =
  let q =
    if h.wlen = 0 then fun _ -> 0.0
    else
      let sorted = Icoe_util.Stats.presort (Array.sub h.window 0 h.wlen) in
      Icoe_util.Stats.percentile_sorted sorted
  in
  {
    count = h.count;
    sum = h.sum;
    hmin = (if h.count = 0 then 0.0 else h.vmin);
    hmax = (if h.count = 0 then 0.0 else h.vmax);
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
  }

let snapshot ?(registry = default) () =
  Hashtbl.fold
    (fun _ m acc ->
      let value =
        match m.payload with
        | Pcounter r -> Counter !r
        | Pgauge r -> Gauge !r
        | Phist h -> Histogram (summarize h)
      in
      { name = m.m_name; labels = m.m_labels; help = m.m_help; value } :: acc)
    registry []
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 ->
             (* typed tie-break on the label pairs: the polymorphic
                [compare] walked runtime representations and would
                break the moment a label value is anything but a
                string; this can't *)
             List.compare
               (fun (ka, va) (kb, vb) ->
                 match String.compare ka kb with
                 | 0 -> String.compare va vb
                 | c -> c)
               a.labels b.labels
         | c -> c)

(* Samples that changed between two snapshots, keyed by name+labels.
   Counters and histogram count/sum become deltas; gauges keep their
   [after] value. Snapshots are already sorted, so the diff is too. *)
let diff ~before ~after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl (s.name, s.labels) s.value) before;
  List.filter_map
    (fun s ->
      let prev = Hashtbl.find_opt tbl (s.name, s.labels) in
      match (s.value, prev) with
      | Counter a, Some (Counter b) ->
          if a = b then None else Some { s with value = Counter (a -. b) }
      | Gauge a, Some (Gauge b) -> if a = b then None else Some s
      | Histogram a, Some (Histogram b) ->
          if a.count = b.count && a.sum = b.sum then None
          else
            Some
              { s with
                value =
                  Histogram { a with count = a.count - b.count; sum = a.sum -. b.sum }
              }
      | _, None -> (
          match s.value with
          | Counter 0.0 -> None
          | Histogram h when h.count = 0 -> None
          | _ -> Some s)
      | _, Some _ -> Some s)
    after

let moved s =
  match s.value with
  | Counter v | Gauge v -> v <> 0.0
  | Histogram h -> h.count > 0

let reset ?(registry = default) () =
  Hashtbl.iter
    (fun _ m ->
      match m.payload with
      | Pcounter r | Pgauge r -> r := 0.0
      | Phist h -> hist_reset h)
    registry

(* --- exposition --- *)

let to_json ?(registry = default) () =
  let open Icoe_util.Json in
  let sample s =
    let value =
      match s.value with
      | Counter v -> [ ("type", Str "counter"); ("value", Num v) ]
      | Gauge v -> [ ("type", Str "gauge"); ("value", Num v) ]
      | Histogram h ->
          [
            ("type", Str "histogram");
            ("count", Num (float_of_int h.count));
            ("sum", Num h.sum);
            ("min", Num h.hmin);
            ("max", Num h.hmax);
            ("p50", Num h.p50);
            ("p90", Num h.p90);
            ("p99", Num h.p99);
          ]
    in
    Obj
      (("name", Str s.name)
      :: ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) s.labels))
      :: value)
  in
  to_string (Obj [ ("metrics", Arr (List.map sample (snapshot ~registry ()))) ])

let render_table ?(registry = default) ?(title = "metrics") () =
  let open Icoe_util in
  let tbl =
    Table.create ~title
      ~aligns:[| Table.Left; Table.Left; Table.Left; Table.Right |]
      [ "metric"; "labels"; "type"; "value" ]
  in
  List.iter
    (fun s ->
      let labels =
        String.concat ","
          (List.map (fun (k, v) -> Fmt.str "%s=%s" k v) s.labels)
      in
      let typ, v =
        match s.value with
        | Counter v -> ("counter", Fmt.str "%.6g" v)
        | Gauge v -> ("gauge", Fmt.str "%.6g" v)
        | Histogram h ->
            ( "histogram",
              Fmt.str "n=%d sum=%.6g p50=%.3g p99=%.3g" h.count h.sum h.p50
                h.p99 )
      in
      Table.add_row tbl [ s.name; labels; typ; v ])
    (List.filter moved (snapshot ~registry ()));
  tbl

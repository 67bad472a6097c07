(** Metrics registry: counters, gauges, log-bucketed histograms, labeled
    families, deterministic snapshot/reset, Prometheus + JSON exposition.
    See metrics.mli for the story. *)

(* --- histogram geometry ---

   Exponential base-2 buckets spanning [1e-12, 1e-12 * 2^95] ~ 4e16, which
   covers everything we record (seconds, iteration counts, frontier sizes,
   residual ratios) with <= 1 bit of relative error. Values at or below
   the lowest bound land in bucket 0; values beyond the highest land in
   the overflow bucket. *)

let bucket_lo = 1e-12
let n_buckets = 96
let window_capacity = 1024

(* ceil(log2 (v / bucket_lo)) without transcendentals: going through
   [Float.log2] rounds, which can push an exact boundary value
   [bucket_lo *. 2^k] one bucket high or low. [v /. bucket_lo] is exact
   for those boundaries (same mantissa as [v], scaled), and [frexp]
   recovers the exponent exactly: x = m * 2^e with m in [0.5, 1), so
   ceil(log2 x) is e - 1 when x is exactly a power of two and e
   otherwise. *)
let bucket_index v =
  if v <= bucket_lo then 0
  else
    let m, e = Float.frexp (v /. bucket_lo) in
    let k = if m = 0.5 then e - 1 else e in
    if k < 0 then 0 else if k > n_buckets then n_buckets else k

let bucket_upper k =
  if k >= n_buckets then infinity else bucket_lo *. Float.pow 2.0 (float_of_int k)

type hist_state = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  counts : int array;  (* n_buckets + 1, last = overflow *)
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
    counts = Array.make (n_buckets + 1) 0;
    window = Array.make window_capacity 0.0;
    wlen = 0;
    wpos = 0;
  }

let hist_reset h =
  h.count <- 0;
  h.sum <- 0.0;
  h.vmin <- infinity;
  h.vmax <- neg_infinity;
  Array.fill h.counts 0 (n_buckets + 1) 0;
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

type registry = {
  tbl : (string, metric) Hashtbl.t;
  mutable enabled : bool;
}

type counter = { c_reg : registry; c : float ref }
type gauge = { g_reg : registry; g : float ref }
type histogram = { h_reg : registry; h : hist_state }

let create () = { tbl = Hashtbl.create 64; enabled = true }

let default =
  let r = create () in
  (match Sys.getenv_opt "ICOE_METRICS" with
  | Some ("0" | "off" | "false") -> r.enabled <- false
  | _ -> ());
  r

let set_enabled ?(registry = default) b = registry.enabled <- b
let is_enabled ?(registry = default) () = registry.enabled

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
  match Hashtbl.find_opt registry.tbl k with
  | Some m -> (
      match match_payload m.payload with
      | Some v -> v
      | None ->
          invalid_arg
            (Fmt.str "Metrics: %s already registered as a %s" k
               (kind_name m.payload)))
  | None ->
      let payload, v = make () in
      Hashtbl.add registry.tbl k
        { m_name = name; m_labels = labels; m_help = help; payload };
      v

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels name
    (fun () ->
      let r = ref 0.0 in
      (Pcounter r, { c_reg = registry; c = r }))
    (function Pcounter r -> Some { c_reg = registry; c = r } | _ -> None)

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels name
    (fun () ->
      let r = ref 0.0 in
      (Pgauge r, { g_reg = registry; g = r }))
    (function Pgauge r -> Some { g_reg = registry; g = r } | _ -> None)

let histogram ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels name
    (fun () ->
      let h = new_hist () in
      (Phist h, { h_reg = registry; h }))
    (function Phist h -> Some { h_reg = registry; h } | _ -> None)

(* --- hot path --- *)

let inc ?(by = 1.0) t =
  check_not_in_job "inc";
  if t.c_reg.enabled then begin
    if by < 0.0 then invalid_arg "Metrics.inc: negative increment";
    t.c := !(t.c) +. by
  end

let set t v =
  check_not_in_job "set";
  if t.g_reg.enabled then t.g := v

let observe t v =
  check_not_in_job "observe";
  if t.h_reg.enabled then begin
    let h = t.h in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let b = h.counts in
    let i = bucket_index v in
    b.(i) <- b.(i) + 1;
    h.window.(h.wpos) <- v;
    h.wpos <- (h.wpos + 1) mod window_capacity;
    if h.wlen < window_capacity then h.wlen <- h.wlen + 1
  end

let clock = ref Unix.gettimeofday
let set_clock f = clock := f

let time ?(registry = default) ?(labels = []) name f =
  if not registry.enabled then f ()
  else begin
    let h = histogram ~registry ~labels name in
    let t0 = !clock () in
    let record () = observe h (max 0.0 (!clock () -. t0)) in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

(* --- reading back --- *)

let counter_value t = !(t.c)
let gauge_value t = !(t.g)
let histogram_count t = t.h.count
let histogram_sum t = t.h.sum

let quantile t q =
  if t.h.wlen = 0 then 0.0
  else
    let a = Array.sub t.h.window 0 t.h.wlen in
    Icoe_util.Stats.percentile_sorted (Icoe_util.Stats.presort a) q

let value ?(registry = default) ?(labels = []) name =
  match Hashtbl.find_opt registry.tbl (key name (sort_labels labels)) with
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
  buckets : (float * int) list;
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
  let buckets =
    let acc = ref [] and cum = ref 0 in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        if c > 0 && i < n_buckets then acc := (bucket_upper i, !cum) :: !acc)
      h.counts;
    List.rev ((infinity, h.count) :: !acc)
  in
  {
    count = h.count;
    sum = h.sum;
    hmin = (if h.count = 0 then 0.0 else h.vmin);
    hmax = (if h.count = 0 then 0.0 else h.vmax);
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
    buckets;
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
    registry.tbl []
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

let reset ?(registry = default) () =
  Hashtbl.iter
    (fun _ m ->
      match m.payload with
      | Pcounter r | Pgauge r -> r := 0.0
      | Phist h -> hist_reset h)
    registry.tbl

(* --- exposition --- *)

let escape_label s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels ?extra labels =
  let labels =
    match extra with Some kv -> labels @ [ kv ] | None -> labels
  in
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Fmt.str {|%s="%s"|} k (escape_label v)) ls)
      ^ "}"

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Fmt.str "%.17g" v

let to_prometheus ?(registry = default) () =
  let buf = Buffer.create 2048 in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf s) fmt in
  let last_header = ref "" in
  List.iter
    (fun s ->
      let typ =
        match s.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
      in
      if !last_header <> s.name then begin
        last_header := s.name;
        if s.help <> "" then add "# HELP %s %s\n" s.name s.help;
        add "# TYPE %s %s\n" s.name typ
      end;
      match s.value with
      | Counter v | Gauge v ->
          add "%s%s %s\n" s.name (prom_labels s.labels) (prom_float v)
      | Histogram h ->
          List.iter
            (fun (ub, cum) ->
              add "%s_bucket%s %d\n" s.name
                (prom_labels ~extra:("le", prom_float ub) s.labels)
                cum)
            h.buckets;
          add "%s_sum%s %s\n" s.name (prom_labels s.labels) (prom_float h.sum);
          add "%s_count%s %d\n" s.name (prom_labels s.labels) h.count)
    (snapshot ~registry ());
  Buffer.contents buf

let json_float = Icoe_util.Json.number

let json_string s = Fmt.str {|"%s"|} (Icoe_util.Json.escape s)

let to_json ?(registry = default) () =
  let buf = Buffer.create 2048 in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf s) fmt in
  add "{\"metrics\":[";
  List.iteri
    (fun i s ->
      if i > 0 then add ",";
      add "\n{\"name\":%s" (json_string s.name);
      add ",\"labels\":{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Fmt.str "%s:%s" (json_string k) (json_string v))
              s.labels));
      (match s.value with
      | Counter v -> add ",\"type\":\"counter\",\"value\":%s" (json_float v)
      | Gauge v -> add ",\"type\":\"gauge\",\"value\":%s" (json_float v)
      | Histogram h ->
          add
            ",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s"
            h.count (json_float h.sum) (json_float h.hmin) (json_float h.hmax)
            (json_float h.p50) (json_float h.p90) (json_float h.p99));
      add "}")
    (snapshot ~registry ());
  add "\n]}\n";
  Buffer.contents buf

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
    (snapshot ~registry ());
  tbl

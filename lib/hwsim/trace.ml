(** Structured, span-based tracing of the simulated machine.

    A trace is a tree of named spans carrying simulated start/end times,
    the device they ran on, and optional kernel attributes. Charges go
    through the bound {!Clock}, so span totals and the clock's per-phase
    breakdown agree; rollups aggregate leaves only, so nested phase spans
    never double-count. See trace.mli for the full story. *)

type span = {
  name : string;
  device : string option;
  start : float;
  mutable stop : float;
  mutable flops : float;
  mutable bytes : float;
  mutable bound : Roofline.bound option;
  mutable bw_util : float option;
  mutable children : span list; (* newest first *)
}

type t = {
  clock : Clock.t;
  root : span;
  mutable stack : span list; (* innermost open span first; root excluded *)
  mutable devices : (string * Device.t) list; (* seen by charge_kernel *)
  mutable nspans : int;
}

let mk_span ?device ~start name =
  {
    name;
    device;
    start;
    stop = start;
    flops = 0.0;
    bytes = 0.0;
    bound = None;
    bw_util = None;
    children = [];
  }

let create ?(root = "experiment") clock =
  {
    clock;
    root = mk_span ~start:(Clock.total clock) root;
    stack = [];
    devices = [];
    nspans = 0;
  }

let root t = t.root
let now t = Clock.total t.clock

let current t = match t.stack with s :: _ -> s | [] -> t.root

let add_child t parent sp =
  parent.children <- sp :: parent.children;
  t.nspans <- t.nspans + 1

let push t ?device name =
  let sp = mk_span ?device ~start:(now t) name in
  add_child t (current t) sp;
  t.stack <- sp :: t.stack

let pop t =
  match t.stack with
  | [] -> invalid_arg "Trace.pop: no open span (root cannot be popped)"
  | sp :: rest ->
      sp.stop <- now t;
      t.stack <- rest

let with_span t ?device name f =
  push t ?device name;
  match f () with
  | v ->
      pop t;
      v
  | exception e ->
      pop t;
      raise e

(* Flight-recorder bridge: every charge/span leaf also lands in the
   unified event log when a sink is installed (ICOE_EVENTS=path). The
   [enabled] check keeps the disabled path to one branch. *)
let emit_span_event ?device ?(flops = 0.0) ?(bytes = 0.0) ~phase ~start dur =
  if Icoe_obs.Events.enabled () then begin
    let open Icoe_util.Json in
    let fields = [ ("phase", Str phase); ("dur_s", Num dur) ] in
    let fields =
      match device with
      | Some d -> ("device", Str d) :: fields
      | None -> fields
    in
    let fields =
      if flops > 0.0 then fields @ [ ("flops", Num flops) ] else fields
    in
    let fields =
      if bytes > 0.0 then fields @ [ ("bytes", Num bytes) ] else fields
    in
    Icoe_obs.Events.emit ~t_s:start ~kind:"span" ~source:"hwsim/trace" fields
  end

let charge t ?device ~phase dt =
  let sp = mk_span ?device ~start:(now t) phase in
  Clock.tick t.clock ~phase dt;
  sp.stop <- now t;
  emit_span_event ?device ~phase ~start:sp.start dt;
  add_child t (current t) sp

(* Scheduler charging: a span pinned at an absolute simulated time
   rather than at the clock's now. Busy seconds go to the clock's phase
   breakdown, but the clock total does NOT move — the scheduler
   advances it once, by the critical path, via [advance]. *)
let scheduled_span t ?device ?(flops = 0.0) ?(bytes = 0.0) ?bound ~phase
    ~start dur =
  if not (dur >= 0.0) then
    invalid_arg
      (Printf.sprintf "Trace.scheduled_span %s: duration %g is not >= 0" phase dur);
  let sp = mk_span ?device ~start phase in
  sp.stop <- start +. dur;
  sp.flops <- flops;
  sp.bytes <- bytes;
  sp.bound <- bound;
  Clock.attribute t.clock ~phase dur;
  emit_span_event ?device ~flops ~bytes ~phase ~start dur;
  add_child t (current t) sp

let advance t dt = Clock.advance t.clock dt

let register_device t (d : Device.t) =
  if not (List.mem_assoc d.Device.name t.devices) then
    t.devices <- (d.Device.name, d) :: t.devices

let charge_kernel t ?eff ?lanes_used ?phase (d : Device.t) (k : Kernel.t) =
  let dt, bound = Roofline.time_and_bound ?eff ?lanes_used d k in
  let phase = match phase with Some p -> p | None -> k.Kernel.name in
  register_device t d;
  let sp = mk_span ~device:d.Device.name ~start:(now t) phase in
  Clock.tick t.clock ~phase dt;
  sp.stop <- now t;
  sp.flops <- k.Kernel.flops;
  sp.bytes <- k.Kernel.bytes;
  sp.bound <- Some bound;
  emit_span_event ~device:d.Device.name ~flops:k.Kernel.flops
    ~bytes:k.Kernel.bytes ~phase ~start:sp.start dt;
  add_child t (current t) sp;
  dt

let annotate_counters t c = (current t).bw_util <- Some (Counters.utilization c)

let span_count t = t.nspans

(* Latest close anywhere in the tree: open spans (including the root,
   which is never popped) fall back to their children. *)
let rec effective_stop sp =
  List.fold_left (fun acc c -> max acc (effective_stop c)) sp.stop sp.children

let total t = effective_stop t.root -. t.root.start

let duration sp = max 0.0 (effective_stop sp -. sp.start)

(* Chronological walk (children are stored newest first). *)
let iter_spans t f =
  let rec go sp =
    f sp;
    List.iter go (List.rev sp.children)
  in
  List.iter go (List.rev t.root.children)

let leaves t =
  let acc = ref [] in
  iter_spans t (fun sp -> if sp.children = [] then acc := sp :: !acc);
  List.rev !acc

(* --- aggregation --- *)

type rollup = {
  key : string;
  seconds : float;
  spans : int;
  r_flops : float;
  r_bytes : float;
}

let rollup_by key_of t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
      let key = key_of sp in
      let r =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            let r =
              ref { key; seconds = 0.0; spans = 0; r_flops = 0.0; r_bytes = 0.0 }
            in
            Hashtbl.add tbl key r;
            order := key :: !order;
            r
      in
      r :=
        {
          !r with
          seconds = !r.seconds +. duration sp;
          spans = !r.spans + 1;
          r_flops = !r.r_flops +. sp.flops;
          r_bytes = !r.r_bytes +. sp.bytes;
        })
    (leaves t);
  List.rev_map (fun key -> !(Hashtbl.find tbl key)) !order

let by_phase t = rollup_by (fun sp -> sp.name) t
let by_device t = rollup_by (fun sp -> Option.value sp.device ~default:"-") t

let top_spans ?(n = 5) t =
  let all = ref [] in
  iter_spans t (fun sp -> all := sp :: !all);
  let sorted =
    List.stable_sort (fun a b -> Float.compare (duration b) (duration a)) !all
  in
  List.filteri (fun i _ -> i < n) sorted

(* --- table rendering --- *)

let share ~total s = if total > 0.0 then 100.0 *. s /. total else 0.0

let device_table ?(title = "per-device rollup") t =
  let open Icoe_util in
  let tot = total t in
  let tbl =
    Table.create ~title
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "device"; "spans"; "seconds"; "share"; "GF/s"; "% of peak" ]
  in
  List.iter
    (fun r ->
      let gflops = if r.seconds > 0.0 then r.r_flops /. r.seconds /. 1e9 else 0.0 in
      let peak_frac =
        match List.assoc_opt r.key t.devices with
        | Some d when r.seconds > 0.0 && r.r_flops > 0.0 ->
            Fmt.str "%.1f%%" (100.0 *. gflops /. d.Device.peak_gflops)
        | _ -> "-"
      in
      Table.add_row tbl
        [ r.key; string_of_int r.spans; Fmt.str "%.3e" r.seconds;
          Fmt.str "%.1f%%" (share ~total:tot r.seconds);
          (if r.r_flops > 0.0 then Fmt.str "%.1f" gflops else "-"); peak_frac ])
    (by_device t);
  tbl

let phase_table ?(title = "per-phase rollup") t =
  let open Icoe_util in
  let tot = total t in
  let tbl =
    Table.create ~title
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "phase"; "spans"; "seconds"; "share" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ r.key; string_of_int r.spans; Fmt.str "%.3e" r.seconds;
          Fmt.str "%.1f%%" (share ~total:tot r.seconds) ])
    (by_phase t);
  tbl

let bound_name = function
  | Some Roofline.Compute_bound -> "compute"
  | Some Roofline.Bandwidth_bound -> "bandwidth"
  | None -> "-"

let span_table ?(title = "top spans") ?(n = 5) t =
  let open Icoe_util in
  let tbl =
    Table.create ~title
      ~aligns:[| Table.Left; Table.Left; Table.Right; Table.Left |]
      [ "span"; "device"; "seconds"; "bound" ]
  in
  List.iter
    (fun sp ->
      Table.add_row tbl
        [ sp.name; Option.value sp.device ~default:"-";
          Fmt.str "%.3e" (duration sp); bound_name sp.bound ])
    (top_spans ~n t);
  tbl

(* --- Chrome trace-event export --- *)

(* One Chrome "complete" (ph:"X") event per span; ts/dur are simulated
   microseconds. One process per trace, one thread per device. Events
   are consed onto [acc] newest first. *)
let add_events acc ~pid ~pname t =
  let open Icoe_util.Json in
  let num i = Num (float_of_int i) in
  let push e = acc := e :: !acc in
  let meta name ~tid value =
    push
      (Obj
         [ ("name", Str name); ("ph", Str "M"); ("pid", num pid);
           ("tid", num tid); ("args", Obj [ ("name", Str value) ]) ])
  in
  meta "process_name" ~tid:0 pname;
  let tids = Hashtbl.create 8 in
  Hashtbl.add tids "-" 0;
  let tid_of sp =
    let dev = Option.value sp.device ~default:"-" in
    match Hashtbl.find_opt tids dev with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tids in
        Hashtbl.add tids dev i;
        meta "thread_name" ~tid:i dev;
        i
  in
  let emit sp ~tid =
    let positive key v = if v > 0.0 then [ (key, Num v) ] else [] in
    let some key f = function Some v -> [ (key, f v) ] | None -> [] in
    let args =
      positive "flops" sp.flops @ positive "bytes" sp.bytes
      @ some "bound" (fun b -> Str (bound_name (Some b))) sp.bound
      @ some "bw_utilization" (fun u -> Num u) sp.bw_util
    in
    push
      (Obj
         [ ("name", Str sp.name); ("cat", Str "sim"); ("ph", Str "X");
           ("ts", Num (sp.start *. 1e6)); ("dur", Num (duration sp *. 1e6));
           ("pid", num pid); ("tid", num tid); ("args", Obj args) ])
  in
  let rec walk parent_tid sp =
    (* children inherit the enclosing span's thread unless they name a
       device of their own, so nesting renders as stacked slices *)
    let tid = match sp.device with Some _ -> tid_of sp | None -> parent_tid in
    emit sp ~tid;
    List.iter (walk tid) (List.rev sp.children)
  in
  emit t.root ~tid:0;
  List.iter (walk 0) (List.rev t.root.children)

let chrome_json_of_many traces =
  let acc = ref [] in
  List.iteri (fun pid (name, t) -> add_events acc ~pid ~pname:name t) traces;
  Icoe_util.Json.(to_string (Arr (List.rev !acc)))

let to_chrome_json t = chrome_json_of_many [ (t.root.name, t) ]

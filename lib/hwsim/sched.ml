(** Event-driven stream/queue scheduler: comm/compute overlap for the
    simulated machine.

    Engines enqueue work items (roofline-priced kernels, link transfers,
    raw charges) on named streams with explicit dependencies. A stream is
    an in-order queue (a CUDA stream, a NIC, a core set): items on the
    same stream execute in enqueue order; items on different streams run
    concurrently once their dependencies have finished. [run] advances
    simulated time by the dependency DAG's critical path instead of the
    serial sum — per-stream busy time and per-phase attribution still
    land in the bound {!Clock}/{!Trace} (via {!Trace.scheduled_span}),
    so rollups, Chrome export and fault accounting keep working
    unchanged.

    With overlap disabled (the [ICOE_OVERLAP=0] fallback, or
    [~overlap:false]), [run] degrades to serialized charging: every item
    is charged back-to-back through the exact same path as
    {!Trace.charge}, so the makespan equals the serial sum and the
    emitted spans/clock ticks are bit-identical to an engine that never
    used the scheduler. *)

type item = {
  id : int;
  stream : string;
  phase : string;
  device : string;
  dur : float;
  deps : item list;
  i_flops : float;
  i_bytes : float;
  i_bound : Roofline.bound option;
  mutable start_s : float;  (** schedule-relative; valid after [run] *)
  mutable finish_s : float;
}

type t = {
  overlap : bool;
  trace : Trace.t option;
  mutable items : item list;  (** newest first *)
  mutable nitems : int;
  mutable streams : string list;  (** first-seen order, reversed *)
  mutable ran : float option;  (** makespan memo: [run] is idempotent *)
}

(* ICOE_OVERLAP=0|off|false disables overlap process-wide (read once, at
   first use). *)
let env_enabled =
  lazy
    (match Sys.getenv_opt "ICOE_OVERLAP" with
    | Some ("0" | "off" | "false" | "OFF" | "FALSE") -> false
    | _ -> true)

let overlap_enabled () = Lazy.force env_enabled

let create ?overlap ?trace () =
  let overlap =
    match overlap with Some b -> b | None -> overlap_enabled ()
  in
  { overlap; trace; items = []; nitems = 0; streams = []; ran = None }

let overlap t = t.overlap

let add t ~stream ~phase ~device ~dur ~deps ~flops ~bytes ~bound =
  if t.ran <> None then
    invalid_arg "Sched: cannot enqueue after run";
  if dur < 0.0 || not (Float.is_finite dur) then
    invalid_arg "Sched: item duration must be finite and nonnegative";
  if not (List.mem stream t.streams) then t.streams <- stream :: t.streams;
  let it =
    {
      id = t.nitems;
      stream;
      phase;
      device;
      dur;
      deps;
      i_flops = flops;
      i_bytes = bytes;
      i_bound = bound;
      start_s = 0.0;
      finish_s = dur;
    }
  in
  t.items <- it :: t.items;
  t.nitems <- t.nitems + 1;
  it

let work t ~stream ?(deps = []) ?device ~phase dur =
  let device = Option.value device ~default:stream in
  add t ~stream ~phase ~device ~dur ~deps ~flops:0.0 ~bytes:0.0 ~bound:None

let kernel t ~stream ?(deps = []) ?eff ?lanes_used ?phase (d : Device.t)
    (k : Kernel.t) =
  let dur, bound = Roofline.time_and_bound ?eff ?lanes_used d k in
  let phase = match phase with Some p -> p | None -> k.Kernel.name in
  add t ~stream ~phase ~device:d.Device.name ~dur ~deps ~flops:k.Kernel.flops
    ~bytes:k.Kernel.bytes ~bound:(Some bound)

let transfer t ~stream ?(deps = []) ?phase (l : Link.t) ~bytes =
  let dur = Link.transfer_time l ~bytes in
  let phase = match phase with Some p -> p | None -> l.Link.name in
  add t ~stream ~phase ~device:l.Link.name ~dur ~deps ~flops:0.0 ~bytes
    ~bound:None

let duration it = it.dur
let stream_of it = it.stream
let deps_of it = it.deps
let items t = List.rev t.items
let serial_sum t = List.fold_left (fun acc it -> acc +. it.dur) 0.0 (items t)

let dag t =
  items t
  |> List.map (fun it ->
         {
           Icoe_obs.Prof.idx = it.id;
           stream = it.stream;
           phase = it.phase;
           device = it.device;
           dur = it.dur;
           deps = List.map (fun d -> d.id) it.deps;
         })
  |> Array.of_list

(* Items can only depend on earlier items, so Prof's one forward pass
   in enqueue order computes the schedule. *)
let run t =
  match t.ran with
  | Some m -> m
  | None ->
      let order = items t in
      let starts, finishes, makespan =
        Icoe_obs.Prof.forward ~overlap:t.overlap (dag t)
      in
      List.iter
        (fun it ->
          it.start_s <- starts.(it.id);
          it.finish_s <- finishes.(it.id))
        order;
      (match t.trace with
      | None -> ()
      | Some tr ->
          let t0 = Trace.now tr in
          if t.overlap then begin
            List.iter
              (fun it ->
                Trace.scheduled_span tr ~device:it.device ~flops:it.i_flops
                  ~bytes:it.i_bytes ?bound:it.i_bound ~phase:it.phase
                  ~start:(t0 +. it.start_s) it.dur)
              order;
            Trace.advance tr makespan
          end
          else
            (* bit-identical to an engine calling Trace.charge per item:
               span at now, clock tick (total + phase) *)
            List.iter
              (fun it ->
                Trace.scheduled_span tr ~device:it.device ~flops:it.i_flops
                  ~bytes:it.i_bytes ?bound:it.i_bound ~phase:it.phase
                  ~start:(Trace.now tr) it.dur;
                Trace.advance tr it.dur)
              order);
      t.ran <- Some makespan;
      makespan

let ran t = t.ran <> None

let makespan t =
  match t.ran with Some m -> m | None -> invalid_arg "Sched.makespan: not run"

let start_time it = it.start_s
let finish_time it = it.finish_s

let profile t = Icoe_obs.Prof.analyze ~overlap:t.overlap (dag t)

(** Critical-path over serial-sum modeled time, in (0, 1]: 1.0 means no
    overlap was found (or nothing was enqueued); smaller is better. *)
let overlap_efficiency t =
  let serial = serial_sum t in
  if serial <= 0.0 then 1.0 else makespan t /. serial

(** Per-stream busy seconds (sum of item durations), first-seen order.
    Conservation: busy time is independent of scheduling, so it is the
    same whether [run] overlapped or serialized. *)
let stream_busy t =
  let busy = Hashtbl.create 8 in
  List.iter
    (fun it ->
      let b = Option.value (Hashtbl.find_opt busy it.stream) ~default:0.0 in
      Hashtbl.replace busy it.stream (b +. it.dur))
    t.items;
  List.rev_map (fun s -> (s, Hashtbl.find busy s)) t.streams

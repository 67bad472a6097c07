(** Critical-path blame over a scheduled stream/dependency DAG.

    {!Hwsim.Sched} advances simulated time by the DAG critical path, so
    per-phase *charge* rollups ({!Hwsim.Trace.by_phase}) no longer say
    what the makespan is waiting on: a phase can charge many seconds and
    still be entirely hidden under another stream. This module answers
    the attribution question: which items the makespan actually ran
    through (the critical path), how much each phase/stream is
    responsible for (blame, summing exactly to the makespan), how much
    room every off-path item has (slack), and what a phase is worth
    ("zero phase X → makespan shrinks by Y").

    The schedule model is [Sched.run]'s own (it calls [forward]):
    items are topologically ordered by construction (deps point at
    earlier items only); with [overlap = true] an item starts at the max
    of its stream's ready time and its deps' finishes; with [overlap =
    false] items run back-to-back in order, so the critical path is
    every item and blame degrades bit-identically to the serial
    per-phase charge breakdown. *)

type item = {
  idx : int;  (** position in enqueue order *)
  stream : string;
  phase : string;
  device : string;
  dur : float;
  deps : int list;  (** indices of earlier items *)
}

type blame = {
  key : string;  (** phase or stream name *)
  seconds : float;  (** makespan seconds attributed to [key] *)
  share : float;  (** [seconds /. makespan], 0 when the makespan is 0 *)
  on_path : int;  (** critical-path items with this key *)
}

type sensitivity = {
  s_key : string;  (** phase name *)
  makespan_without : float;  (** makespan with every [s_key] item zeroed *)
  shrink_s : float;  (** [makespan - makespan_without], >= 0 *)
}

type analysis = {
  overlap : bool;
  n_items : int;
  makespan : float;
  serial_s : float;  (** sum of all durations *)
  starts : float array;
  finishes : float array;
  slack : float array;  (** per item; 0 everywhere with overlap off *)
  critical : int list;  (** item indices along the blamed path, in order *)
  phase_blame : blame list;  (** descending seconds; sums to [makespan] *)
  stream_blame : blame list;  (** descending seconds; sums to [makespan] *)
  phase_sensitivity : sensitivity list;  (** descending shrink *)
}

let validate items =
  Array.iteri
    (fun i (it : item) ->
      if it.idx <> i then
        invalid_arg (Fmt.str "Prof: item %d carries idx %d" i it.idx);
      if it.dur < 0.0 || not (Float.is_finite it.dur) then
        invalid_arg
          (Fmt.str "Prof: item %d duration must be finite and nonnegative" i);
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg
              (Fmt.str "Prof: item %d depends on %d (deps must be earlier)" i d))
        it.deps)
    items

(* The forward pass, with a [zero] predicate for what-if evaluation.
   Returns (starts, finishes, makespan). *)
let forward_zeroing ~zero ~overlap items =
  let n = Array.length items in
  let starts = Array.make n 0.0 and finishes = Array.make n 0.0 in
  let makespan = ref 0.0 in
  if overlap then begin
    let ready = Hashtbl.create 8 in
    Array.iter
      (fun (it : item) ->
        let dur = if zero it then 0.0 else it.dur in
        let stream_ready =
          Option.value (Hashtbl.find_opt ready it.stream) ~default:0.0
        in
        let start =
          List.fold_left
            (fun acc d -> Float.max acc finishes.(d))
            stream_ready it.deps
        in
        starts.(it.idx) <- start;
        finishes.(it.idx) <- start +. dur;
        Hashtbl.replace ready it.stream finishes.(it.idx);
        makespan := Float.max !makespan finishes.(it.idx))
      items
  end
  else begin
    let now = ref 0.0 in
    Array.iter
      (fun (it : item) ->
        let dur = if zero it then 0.0 else it.dur in
        starts.(it.idx) <- !now;
        now := !now +. dur;
        finishes.(it.idx) <- !now)
      items;
    makespan := !now
  end;
  (starts, finishes, !makespan)

(* the plain pass, shared with [Sched.run] *)
let forward ~overlap items =
  forward_zeroing ~zero:(fun (_ : item) -> false) ~overlap items

(* The blamed path: from the earliest item that achieves the makespan,
   follow the binding constraint backwards. An item's start is the max
   over its stream predecessor's finish and its deps' finishes, so some
   candidate's finish equals the start exactly (float-exactly: the start
   IS that max); among ties the smallest index wins, making the path
   deterministic. The chain ends at an item that starts at 0 with no
   candidate, so path durations telescope to the makespan. *)
let critical_path ~starts ~finishes ~makespan ~stream_pred items =
  let n = Array.length items in
  if n = 0 || makespan <= 0.0 then []
  else begin
    let terminal = ref (-1) in
    for i = n - 1 downto 0 do
      if finishes.(i) = makespan then terminal := i
    done;
    let rec walk acc i =
      let acc = i :: acc in
      let it = items.(i) in
      let candidates =
        match stream_pred.(i) with
        | Some p -> p :: it.deps
        | None -> it.deps
      in
      let binding =
        List.fold_left
          (fun best c ->
            if finishes.(c) = starts.(i) then
              match best with
              | Some b when b <= c -> best
              | _ -> Some c
            else best)
          None candidates
      in
      match binding with Some p -> walk acc p | None -> acc
    in
    walk [] !terminal
  end

(* Group seconds along the path by a key, accumulating in path order so
   per-key sums match the order the clock's phase breakdown would have
   accumulated them in. Output is sorted by descending seconds (stable
   over first-seen order). *)
let blame_by key_of ~makespan items path =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun i ->
      let it = items.(i) in
      let key = key_of it in
      (match Hashtbl.find_opt tbl key with
      | Some (s, c) -> Hashtbl.replace tbl key (s +. it.dur, c + 1)
      | None ->
          Hashtbl.add tbl key (it.dur, 1);
          order := key :: !order))
    path;
  let rows =
    List.rev_map
      (fun key ->
        let seconds, on_path = Hashtbl.find tbl key in
        {
          key;
          seconds;
          share = (if makespan > 0.0 then seconds /. makespan else 0.0);
          on_path;
        })
      !order
  in
  List.stable_sort (fun a b -> Float.compare b.seconds a.seconds) rows

let distinct_phases items =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun (it : item) ->
      if not (Hashtbl.mem seen it.phase) then begin
        Hashtbl.add seen it.phase ();
        order := it.phase :: !order
      end)
    items;
  List.rev !order

let analyze ~overlap items =
  validate items;
  let n = Array.length items in
  let starts, finishes, makespan = forward ~overlap items in
  let serial_s = Array.fold_left (fun acc it -> acc +. it.dur) 0.0 items in
  (* previous/next item on the same stream, by enqueue order *)
  let stream_pred = Array.make n None and stream_succ = Array.make n None in
  let last = Hashtbl.create 8 in
  Array.iter
    (fun (it : item) ->
      (match Hashtbl.find_opt last it.stream with
      | Some p ->
          stream_pred.(it.idx) <- Some p;
          stream_succ.(p) <- Some it.idx
      | None -> ());
      Hashtbl.replace last it.stream it.idx)
    items;
  let critical =
    if overlap then critical_path ~starts ~finishes ~makespan ~stream_pred items
    else List.init n Fun.id
  in
  (* slack: how much later an item could finish without growing the
     makespan. Backward pass over the reverse topological order (reverse
     enqueue order works: all constraint edges point backwards). *)
  let slack = Array.make n 0.0 in
  if overlap then begin
    let late_finish = Array.make n makespan in
    let late_start i = late_finish.(i) -. items.(i).dur in
    for i = n - 1 downto 0 do
      (match stream_succ.(i) with
      | Some s -> late_finish.(i) <- Float.min late_finish.(i) (late_start s)
      | None -> ());
      List.iter
        (fun d -> late_finish.(d) <- Float.min late_finish.(d) (late_start i))
        items.(i).deps
    done;
    (* the backward pass regroups the same sums the forward pass
       computed, so longest-path items can come out with a few-ulp
       residue instead of exactly 0; snap those to 0 so "on a longest
       path" and "slack = 0" stay synonymous *)
    let eps = 1e-12 *. Float.max 1.0 makespan in
    for i = 0 to n - 1 do
      let s = Float.max 0.0 (late_finish.(i) -. finishes.(i)) in
      slack.(i) <- (if s < eps then 0.0 else s)
    done
  end;
  let phase_blame = blame_by (fun it -> it.phase) ~makespan items critical in
  let stream_blame = blame_by (fun it -> it.stream) ~makespan items critical in
  let phase_sensitivity =
    List.map
      (fun phase ->
        let _, _, without =
          forward_zeroing ~overlap ~zero:(fun it -> it.phase = phase) items
        in
        {
          s_key = phase;
          makespan_without = without;
          shrink_s = Float.max 0.0 (makespan -. without);
        })
      (distinct_phases items)
    |> List.stable_sort (fun a b -> Float.compare b.shrink_s a.shrink_s)
  in
  {
    overlap;
    n_items = n;
    makespan;
    serial_s;
    starts;
    finishes;
    slack;
    critical;
    phase_blame;
    stream_blame;
    phase_sensitivity;
  }

let what_if_zero a items pred =
  let _, _, without = forward_zeroing ~overlap:a.overlap ~zero:pred items in
  a.makespan -. without

let blame_total a =
  List.fold_left (fun acc b -> acc +. b.seconds) 0.0 a.phase_blame

(* --- rendering --- *)

(** Per-phase blame as a report table. *)
let blame_table ?(title = "critical-path blame") a =
  let open Icoe_util in
  let t =
    Table.create ~title
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
      [ "phase"; "on path"; "blame (s)"; "share" ]
  in
  List.iter
    (fun b ->
      Table.add_row t
        [
          b.key;
          string_of_int b.on_path;
          Fmt.str "%.3e" b.seconds;
          Fmt.str "%.1f%%" (100.0 *. b.share);
        ])
    a.phase_blame;
  t

(** One "what-if: zero <phase> -> ..." line per phase. *)
let sensitivity_lines a =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      if s.shrink_s > 0.0 then
        Fmt.kstr (Buffer.add_string buf)
          "what-if: zero %s -> makespan %.3e s (-%.3e s, -%.1f%%)\n" s.s_key
          s.makespan_without s.shrink_s
          (if a.makespan > 0.0 then 100.0 *. s.shrink_s /. a.makespan else 0.0)
      else
        Fmt.kstr (Buffer.add_string buf)
          "what-if: zero %s -> makespan unchanged (fully hidden)\n" s.s_key)
    a.phase_sensitivity;
  Buffer.contents buf

let report_section a =
  Fmt.str
    "%scritical path: %d of %d items; makespan %.3e s of %.3e s serial \
     (%.1f%% hidden)\n%s"
    (Icoe_util.Table.render (blame_table a))
    (List.length a.critical) a.n_items a.makespan a.serial_s
    (if a.serial_s > 0.0 then
       100.0 *. (a.serial_s -. a.makespan) /. a.serial_s
     else 0.0)
    (sensitivity_lines a)

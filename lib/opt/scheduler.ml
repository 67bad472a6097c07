(* The Opt activity's job-scheduler simulator (Sec 4.7) as an adapter
   over Core, the event-driven gang scheduler it shares with the service
   layer's Icoe_svc.Cluster. *)

module Core = struct
  type policy = Fcfs | Easy_backfill | Sjf_quota of float | Partition of float

  type 'a hooks = {
    width : 'a -> int;
    arrival : 'a -> float;
    estimate : 'a -> float;
    dispatch : t:float -> 'a -> float;
    on_submit : 'a -> unit;
    on_finish : t:float -> 'a -> unit;
    after_event : t:float -> depth:int -> free:int -> unit;
  }

  type outcome = {
    makespan : float;
    busy : float;
    completed : int;
    waits : float list;
  }

  (* a submitted job with its scheduling inputs evaluated once; [seq] is
     its position in the submitted list (the id error messages name),
     [ins] its position in arrival order, which is the order it joins
     the wait queue and so the queue's key *)
  type 'a entry = {
    job : 'a;
    seq : int;
    ins : int;
    width : int;
    arrival : float;
    est : float;
  }

  (* (time, ordinal) keys, exact comparisons: the running set is ordered
     on (finish, dispatch ordinal), a class bucket on (estimate,
     insertion) under SJF and (0, insertion) otherwise *)
  module Key = struct
    type t = float * int

    let compare ((a : float), (i : int)) (b, j) =
      match Float.compare a b with 0 -> Int.compare i j | c -> c
  end

  module Timed = Map.Make (Key)

  module Imap = Map.Make (Int)

  (* the event-time tie rule: anything at or within 1e-12 s after [now]
     happens at [now] *)
  let due ~now f = f <= now +. 1e-12

  (* [Stdlib.min] on floats, monomorphic: unlike [Float.min] it keeps
     its first argument when 0.0 meets -0.0 *)
  let earliest (a : float) b = if a <= b then a else b

  (* EASY shadow: the earliest time [need] units will be free, given the
     running set, and how many are free then. The set is in finish
     order, so simultaneous finishers are adjacent: each distinct finish
     time frees their summed width at once. *)
  let shadow_scan ~now ~free ~need running =
    let rec walk free s =
      if free >= need then (now, free)
      else
        match s () with
        | Seq.Nil -> (infinity, free)
        | Seq.Cons (((f, _), e), tl) -> group f (free + e.width) tl
    and group f free s =
      match s () with
      | Seq.Cons (((f', _), e), tl) when Float.equal f' f ->
          group f (free + e.width) tl
      | rest -> if free >= need then (f, free) else walk free (fun () -> rest)
    in
    walk free (Timed.to_seq running)

  let run ?(check = false) ~pool (h : _ hooks) policy jobs =
    (* jobs wider than the pool can never start: they are dropped before
       scheduling (so they neither block the queue nor stall the loop)
       and stay out of the long/short median *)
    let entries =
      List.filter (fun j -> h.width j <= pool) jobs
      |> List.mapi (fun seq job ->
             let width = h.width job and arrival = h.arrival job in
             { job; seq; ins = 0; width; arrival; est = h.estimate job })
    in
    (* the estimate median splits short from long for the quota *)
    let median =
      match entries with
      | [] -> 1.0
      | _ ->
          Icoe_util.Stats.median
            (Array.of_list (List.map (fun e -> e.est) entries))
    in
    let is_long e = e.est > median in
    (* partition geometry: jobs of at least an eighth of the pool are
       "wide" and run on a reserved side of it *)
    let wide_cut = max 2 (pool / 8) in
    let is_wide e = e.width >= wide_cut in
    let pending =
      ref
        (List.stable_sort (fun a b -> Float.compare a.arrival b.arrival) entries
        |> List.mapi (fun ins e -> { e with ins }))
    in
    (* the wait queue keyed on insertion order, and the same jobs in
       class buckets, one per (long?, width) class, each in the policy's
       priority order: (estimate, insertion) under SJF, insertion
       otherwise; under EASY each class is also kept in (estimate,
       insertion) order, for its shortest estimate *)
    let queue = ref Imap.empty and buckets = ref Imap.empty in
    let by_estimate = ref Imap.empty and easy = policy = Easy_backfill in
    let class_of e = (2 * e.width) + if is_long e then 1 else 0 in
    let key e =
      match policy with Sjf_quota _ -> (e.est, e.ins) | _ -> (0.0, e.ins)
    in
    let add k e classes =
      Imap.update (class_of e)
        (fun b -> Some (Timed.add k e (Option.value b ~default:Timed.empty)))
        classes
    in
    let remove k e classes =
      Imap.update (class_of e)
        (fun b ->
          Option.bind b (fun b ->
              let b = Timed.remove k b in
              if Timed.is_empty b then None else Some b))
        classes
    in
    let enqueue e =
      queue := Imap.add e.ins e !queue;
      buckets := add (key e) e !buckets;
      if easy then by_estimate := add (e.est, e.ins) e !by_estimate
    in
    let take e =
      queue := Imap.remove e.ins !queue;
      buckets := remove (key e) e !buckets;
      if easy then by_estimate := remove (e.est, e.ins) e !by_estimate
    in
    (* the first job in priority order among the classes [admits]
       accepts: the smallest of their bucket heads *)
    let first_of admits =
      Imap.fold
        (fun cls b best ->
          if not (admits ~width:(cls / 2) ~long:(cls mod 2 = 1)) then best
          else
            let ((k, _) as head) = Timed.min_binding b in
            match best with
            | Some (k', _) when Key.compare k' k < 0 -> best
            | _ -> Some head)
        !buckets None
      |> Option.map snd
    in
    let queued = ref 0 and shorts_queued = ref 0 in
    (* (finish, dispatch ordinal) -> entry *)
    let running = ref Timed.empty and dispatched = ref 0 in
    let free = ref pool and long_used = ref 0 and wide_used = ref 0 in
    let t = ref 0.0 in
    let busy = ref 0.0 and waits = ref [] and completed = ref 0 in
    let fits e = e.width <= !free in
    (* EASY backfill: the blocked head reserves its shadow time; a later
       job may start now only if it fits, and finishes by then or fits
       the units still spare at the shadow once the head has started.
       The candidate is the first such job in insertion order. Every
       bucket is keyed (0, insertion) under this policy, so it is the
       earliest of the per-bucket firsts, over the classes that fit: a
       class within [spare] qualifies whole, so its first job after the
       head is one lookup. A wider class has a qualifying job only if
       its shortest estimate finishes by the shadow ([t + est] grows
       with [est]); then it is walked from the head, but only up to the
       best job found so far. *)
    let easy_backfill head =
      let shadow_t, free_at_shadow =
        shadow_scan ~now:!t ~free:!free ~need:head.width !running
      in
      let spare = free_at_shadow - head.width in
      let in_time e = !t +. e.est <= shadow_t in
      let after_head (_, ins) = ins > head.ins in
      (* NaN estimates sort first and never finish in time *)
      let not_nan (est, _) = not (Float.is_nan est) in
      let rec search best classes =
        match classes () with
        | Seq.Cons ((cls, b), tl) when cls / 2 <= !free ->
            let before = match best with Some e -> e.ins | None -> max_int in
            let first =
              if cls / 2 <= spare then
                Option.map snd (Timed.find_first_opt after_head b)
              else
                match
                  Timed.find_first_opt not_nan (Imap.find cls !by_estimate)
                with
                | Some (_, shortest) when in_time shortest ->
                    Timed.to_seq_from (0.0, head.ins + 1) b
                    |> Seq.take_while (fun (_, e) -> e.ins < before)
                    |> Seq.find_map (fun (_, e) ->
                           if in_time e then Some e else None)
                | _ -> None
            in
            search
              (match first with
              | Some e when e.ins < before -> first
              | _ -> best)
              tl
        | _ -> best
      in
      let candidate = search None (Imap.to_seq !buckets) in
      (match candidate with
      | Some e when check ->
          (* the invariant EASY promises the reserved head: starting the
             backfilled job must not move the head's shadow *)
          let shadow_t', _ =
            shadow_scan ~now:!t ~free:(!free - e.width) ~need:head.width
              (Timed.add (!t +. e.est, !dispatched) e !running)
          in
          if shadow_t' > shadow_t +. 1e-9 then
            invalid_arg
              (Fmt.str
                 "easy_backfill: job #%d (width %d, estimate %.3f s) delays \
                  the reserved head #%d: shadow %.6f -> %.6f"
                 e.seq e.width e.est head.seq shadow_t shadow_t')
      | _ -> ());
      candidate
    in
    let pick () =
      match policy with
      | Fcfs | Easy_backfill -> (
          match Imap.min_binding_opt !queue with
          | Some (_, head) when fits head -> Some head
          | Some (_, head) when policy = Easy_backfill -> easy_backfill head
          | _ -> None)
      | Sjf_quota q ->
          (* the quota reserves capacity for short jobs, but binds only
             while shorts are waiting, and never blocks the only long
             job (guaranteed progress); at q = 1 it never binds. Both
             tests depend on the job's class alone, so the first job in
             (estimate, insertion) order that passes them is the first
             among the classes that pass. *)
          first_of (fun ~width ~long ->
              width <= !free
              && ((not long)
                 || !shorts_queued = 0
                 || !long_used = 0
                 || float_of_int (!long_used + width) <= q *. float_of_int pool))
      | Partition wide_frac -> (
          (* each side is FCFS over its own jobs: a job is passed over
             only once an earlier job of its side could not start, so a
             draining wide gang never blocks the small-job stream. Only
             each side's first job is a candidate; the earlier of those
             that fit their side starts. *)
          let wide_units = int_of_float (wide_frac *. float_of_int pool) in
          let small_units = pool - wide_units in
          let fits_side e =
            fits e
            &&
            if is_wide e then !wide_used + e.width <= wide_units
            else pool - !free - !wide_used + e.width <= small_units
          in
          let side_head wide =
            match first_of (fun ~width ~long:_ -> (width >= wide_cut) = wide) with
            | Some e when fits_side e -> Some e
            | _ -> None
          in
          match (side_head true, side_head false) with
          | Some w, Some s -> Some (if w.ins < s.ins then w else s)
          | (Some _ as c), None | None, c -> c)
    in
    let rec start_jobs () =
      match pick () with
      | None -> ()
      | Some e ->
          take e;
          decr queued;
          if not (is_long e) then decr shorts_queued;
          let s = h.dispatch ~t:!t e.job in
          free := !free - e.width;
          if is_long e then long_used := !long_used + e.width;
          if is_wide e then wide_used := !wide_used + e.width;
          waits := (!t -. e.arrival) :: !waits;
          busy := !busy +. (float_of_int e.width *. s);
          running := Timed.add (!t +. s, !dispatched) e !running;
          incr dispatched;
          start_jobs ()
    in
    let next_event () =
      let finish =
        match Timed.min_binding_opt !running with
        | Some ((f, _), _) -> f
        | None -> infinity
      in
      match !pending with
      | e :: _ -> Some (earliest e.arrival finish)
      | [] -> if Timed.is_empty !running then None else Some finish
    in
    (* the running set is in finish order, so the jobs due now are a
       prefix; returned most recent dispatch first *)
    let rec retire ~now acc =
      match Timed.min_binding_opt !running with
      | Some (((f, _) as k), e) when due ~now f ->
          running := Timed.remove k !running;
          retire ~now ((k, e) :: acc)
      | _ -> List.sort (fun ((_, a), _) ((_, b), _) -> Int.compare b a) acc
    in
    (* [pending] is in arrival order, so the jobs due now are a prefix *)
    let rec arrive ~now =
      match !pending with
      | e :: rest when due ~now e.arrival ->
          pending := rest;
          h.on_submit e.job;
          incr queued;
          if not (is_long e) then incr shorts_queued;
          enqueue e;
          arrive ~now
      | _ -> ()
    in
    let rec loop () =
      match next_event () with
      | None -> ()
      | Some now ->
          t := now;
          List.iter
            (fun (_, e) ->
              free := !free + e.width;
              if is_long e then long_used := !long_used - e.width;
              if is_wide e then wide_used := !wide_used - e.width;
              incr completed;
              h.on_finish ~t:now e.job)
            (retire ~now []);
          arrive ~now;
          start_jobs ();
          h.after_event ~t:now ~depth:!queued ~free:!free;
          loop ()
    in
    h.after_event ~t:0.0 ~depth:0 ~free:pool;
    loop ();
    { makespan = !t; busy = !busy; completed = !completed; waits = !waits }
end

(* --- the Opt adapter: pre-drawn durations on a GPU pool --- *)

type job = {
  id : int;
  arrival : float;
  duration : float;
  gpus : int;  (** GPUs required simultaneously *)
}

type policy = Fcfs | Fcfs_backfill | Sjf | Sjf_quota of float

let policy_name = function
  | Fcfs -> "FCFS"
  | Fcfs_backfill -> "FCFS+EASY-backfill"
  | Sjf -> "SJF"
  | Sjf_quota q -> Fmt.str "SJF+quota(%.0f%%)" (q *. 100.0)

type metrics = {
  makespan : float;
  utilization : float;  (** busy GPU-seconds / (gpus * makespan) *)
  mean_wait : float;
  max_wait : float;
  completed : int;
}

let batch_workload ~(rng : Icoe_util.Rng.t) ?(n = 500) () =
  List.init n (fun id ->
      let duration = exp (Icoe_util.Rng.normal rng ~mu:1.0 ~sigma:0.9) in
      (* a third of the design evaluations are wide (multi-GPU) jobs, up
         to half the pool: these are what make naive FCFS idle GPUs *)
      let gpus = if Icoe_util.Rng.float rng < 0.35 then 2 + Icoe_util.Rng.int rng 7 else 1 in
      { id; arrival = 0.0; duration; gpus })

let poisson_workload ~(rng : Icoe_util.Rng.t) ~rate ~horizon () =
  let rec go t id acc =
    let t = t +. Icoe_util.Rng.exponential rng ~rate in
    if t > horizon then List.rev acc
    else
      let duration = exp (Icoe_util.Rng.normal rng ~mu:1.0 ~sigma:0.6) in
      go t (id + 1) ({ id; arrival = t; duration; gpus = 1 } :: acc)
  in
  go 0.0 0 []

let capacity ~gpus ~mean_duration = float_of_int gpus /. mean_duration

let simulate_schedule ?(gpus = 16) ?check policy jobs =
  let policy =
    match policy with
    | Fcfs -> Core.Fcfs
    | Fcfs_backfill -> Core.Easy_backfill
    | Sjf -> Core.Sjf_quota 1.0
    | Sjf_quota q -> Core.Sjf_quota q
  in
  let schedule = ref [] in
  let { Core.makespan; busy; completed; waits } =
    Core.run ?check ~pool:gpus
      {
        Core.width = (fun j -> j.gpus);
        arrival = (fun j -> j.arrival);
        estimate = (fun j -> j.duration);
        dispatch =
          (fun ~t j ->
            schedule := (j.id, t, t +. j.duration) :: !schedule;
            j.duration);
        on_submit = ignore;
        on_finish = (fun ~t:_ _ -> ());
        after_event = (fun ~t:_ ~depth:_ ~free:_ -> ());
      }
      policy jobs
  in
  (* reverse start order: the order the mean has always been summed in *)
  let waits = Array.of_list waits in
  ( {
      makespan;
      utilization = busy /. (float_of_int gpus *. max 1e-9 makespan);
      mean_wait = (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
      max_wait = (if Array.length waits = 0 then 0.0 else snd (Icoe_util.Stats.min_max waits));
      completed;
    },
    List.rev !schedule )

let simulate ?gpus ?check policy jobs =
  fst (simulate_schedule ?gpus ?check policy jobs)

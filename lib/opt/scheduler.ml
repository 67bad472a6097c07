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
     its position in the submitted list, unique, so it identifies the
     job when it leaves the middle of the queue *)
  type 'a entry = {
    job : 'a;
    seq : int;
    width : int;
    arrival : float;
    est : float;
  }

  (* the event-time tie rule: anything at or within 1e-12 s after [now]
     happens at [now] *)
  let due ~now f = f <= now +. 1e-12

  (* [Stdlib.min] on floats, monomorphic: unlike [Float.min] it keeps
     its first argument when 0.0 meets -0.0 *)
  let earliest (a : float) b = if a <= b then a else b

  (* EASY shadow: the earliest time [need] units will be free, given the
     running (finish, entry) set, and how many are free then. Finish
     times are deduplicated before the walk: [freed] already sums every
     job finishing at [f], so a duplicate entry would double-count
     simultaneous finishers and land the shadow too early. *)
  let shadow_scan ~now ~free ~need running =
    let finishes = List.sort_uniq Float.compare (List.map fst running) in
    let rec walk free = function
      | _ when free >= need -> (now, free)
      | [] -> (infinity, free)
      | f :: tl ->
          let freed =
            List.fold_left
              (fun a (f', e) -> if Float.equal f' f then a + e.width else a)
              0 running
          in
          if free + freed >= need then (f, free + freed)
          else walk (free + freed) tl
    in
    walk free finishes

  let run ?(check = false) ~pool (h : _ hooks) policy jobs =
    (* jobs wider than the pool can never start: they are dropped before
       scheduling (so they neither block the queue nor stall the loop)
       and stay out of the long/short median *)
    let entries =
      List.filter (fun j -> h.width j <= pool) jobs
      |> List.mapi (fun seq job ->
             let width = h.width job and arrival = h.arrival job in
             { job; seq; width; arrival; est = h.estimate job })
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
      ref (List.sort (fun a b -> Float.compare a.arrival b.arrival) entries)
    in
    let queue = ref [] in
    let queued = ref 0 and shorts_queued = ref 0 in
    (* (finish, entry), most recent dispatch first *)
    let running = ref [] in
    let free = ref pool and long_used = ref 0 and wide_used = ref 0 in
    let t = ref 0.0 in
    let busy = ref 0.0 and waits = ref [] and completed = ref 0 in
    let fits e = e.width <= !free in
    let take e =
      queue := List.filter (fun x -> x.seq <> e.seq) !queue;
      e
    in
    (* EASY backfill: the blocked head reserves its shadow time; a later
       job may start now only if it finishes by then or fits the units
       still spare at the shadow once the head has started *)
    let easy_backfill head rest =
      let shadow_t, free_at_shadow =
        shadow_scan ~now:!t ~free:!free ~need:head.width !running
      in
      let spare = free_at_shadow - head.width in
      let candidate =
        List.find_opt
          (fun e -> fits e && (!t +. e.est <= shadow_t || e.width <= spare))
          rest
      in
      (match candidate with
      | Some e when check ->
          (* the invariant EASY promises the reserved head: starting the
             backfilled job must not move the head's shadow *)
          let shadow_t', _ =
            shadow_scan ~now:!t ~free:(!free - e.width) ~need:head.width
              ((!t +. e.est, e) :: !running)
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
      match (policy, !queue) with
      | _, [] -> None
      | (Fcfs | Easy_backfill), head :: rest when fits head ->
          queue := rest;
          Some head
      | Fcfs, _ -> None
      | Easy_backfill, head :: rest ->
          Option.map take (easy_backfill head rest)
      | Sjf_quota q, waiting ->
          (* the quota reserves capacity for short jobs, but binds only
             while shorts are waiting, and never blocks the only long
             job (guaranteed progress); at q = 1 it never binds *)
          let within_quota e =
            (not (is_long e))
            || !shorts_queued = 0
            || !long_used = 0
            || float_of_int (!long_used + e.width) <= q *. float_of_int pool
          in
          List.sort (fun a b -> Float.compare a.est b.est) waiting
          |> List.find_opt (fun e -> fits e && within_quota e)
          |> Option.map take
      | Partition wide_frac, waiting ->
          (* each side is FCFS over its own jobs: a job is passed over
             only once an earlier job of its side could not start, so a
             draining wide gang never blocks the small-job stream *)
          let wide_units = int_of_float (wide_frac *. float_of_int pool) in
          let small_units = pool - wide_units in
          let fits_side e =
            fits e
            &&
            if is_wide e then !wide_used + e.width <= wide_units
            else pool - !free - !wide_used + e.width <= small_units
          in
          let rec first_fit ~wide_blocked ~small_blocked = function
            | [] -> None
            | e :: rest ->
                let wide = is_wide e in
                if (not (if wide then wide_blocked else small_blocked))
                   && fits_side e
                then Some (take e)
                else
                  first_fit ~wide_blocked:(wide_blocked || wide)
                    ~small_blocked:(small_blocked || not wide)
                    rest
          in
          first_fit ~wide_blocked:false ~small_blocked:false waiting
    in
    let rec start_jobs () =
      match pick () with
      | None -> ()
      | Some e ->
          decr queued;
          if not (is_long e) then decr shorts_queued;
          let s = h.dispatch ~t:!t e.job in
          free := !free - e.width;
          if is_long e then long_used := !long_used + e.width;
          if is_wide e then wide_used := !wide_used + e.width;
          waits := (!t -. e.arrival) :: !waits;
          busy := !busy +. (float_of_int e.width *. s);
          running := (!t +. s, e) :: !running;
          start_jobs ()
    in
    let next_event () =
      let finish =
        List.fold_left (fun a (f, _) -> earliest a f) infinity !running
      in
      match !pending with
      | e :: _ -> Some (earliest e.arrival finish)
      | [] -> if !running = [] then None else Some finish
    in
    (* [pending] is in arrival order, so the jobs due now are a prefix *)
    let rec split_due ~now acc = function
      | e :: rest when due ~now e.arrival -> split_due ~now (e :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec loop () =
      match next_event () with
      | None -> ()
      | Some now ->
          t := now;
          (* finishers, most recent dispatch first *)
          let finished, still =
            List.partition (fun (f, _) -> due ~now f) !running
          in
          running := still;
          List.iter
            (fun (_, e) ->
              free := !free + e.width;
              if is_long e then long_used := !long_used - e.width;
              if is_wide e then wide_used := !wide_used - e.width;
              incr completed;
              h.on_finish ~t:now e.job)
            finished;
          let arrived, later = split_due ~now [] !pending in
          pending := later;
          List.iter
            (fun e ->
              h.on_submit e.job;
              incr queued;
              if not (is_long e) then incr shorts_queued)
            arrived;
          queue := !queue @ arrived;
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

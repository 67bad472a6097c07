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

  (* the event-time tie rule: anything at or within 1e-12 s after [now]
     happens at [now] *)
  let due ~now f = f <= now +. 1e-12

  (* [Stdlib.min] on floats, monomorphic: unlike [Float.min] it keeps
     its first argument when 0.0 meets -0.0 *)
  let earliest (a : float) b = if a <= b then a else b

  (* the run's float state, in an all-float record so that updates do
     not box *)
  type clock = { mutable now : float; mutable busy : float; mutable shadow : float }

  let run ?(check = false) ~pool (h : _ hooks) policy jobs =
    (* jobs wider than the pool can never start: they are dropped before
       scheduling (so they neither block the queue nor stall the loop)
       and stay out of the long/short median. [seq] numbers the rest in
       submitted order, the order the hooks are read in. *)
    let by_seq = Array.of_list (List.filter (fun j -> h.width j <= pool) jobs) in
    let n = Array.length by_seq in
    let wid_s = Array.make n 0 and arr_s = Array.make n 0.0 in
    let est_s = Array.make n 0.0 in
    Array.iteri
      (fun seq j ->
        wid_s.(seq) <- h.width j;
        (* a NaN arrival never comes due: the event loop would not end *)
        let a = h.arrival j in
        if Float.is_nan a then
          invalid_arg
            (Fmt.str "Scheduler.Core.run: job #%d has a NaN arrival" seq);
        arr_s.(seq) <- a;
        est_s.(seq) <- h.estimate j)
      by_seq;
    (* the estimate median splits short from long for the quota *)
    let median = if n = 0 then 1.0 else Icoe_util.Stats.median est_s in
    (* [ins], a job's position in arrival order (stable), indexes every
       per-job array below; it is the order jobs join the wait queue *)
    let order = Array.init n Fun.id in
    let sorted = ref true in
    for i = 1 to n - 1 do
      if Float.compare arr_s.(i - 1) arr_s.(i) > 0 then sorted := false
    done;
    if not !sorted then
      Array.stable_sort (fun a b -> Float.compare arr_s.(a) arr_s.(b)) order;
    let permute a = if !sorted then a else Array.map (fun s -> a.(s)) order in
    let job = permute by_seq and wid = permute wid_s in
    let arr = permute arr_s and est = permute est_s in
    let is_long e = est.(e) > median in
    (* partition geometry: jobs of at least an eighth of the pool are
       "wide" and run on a reserved side of it *)
    let wide_cut = max 2 (pool / 8) in
    let is_wide e = wid.(e) >= wide_cut in
    (* pending: jobs [!next, n) have not arrived; [taken] marks started
       ones, so job [e] waits iff [e < !next && not taken e] *)
    let next = ref 0 and taken = Bytes.make n '\000' in
    let is_taken e = Bytes.unsafe_get taken e <> '\000' in
    (* the FCFS/EASY head: every arrived job before it has started *)
    let qhead = ref 0 in
    (* Class buckets. EASY walks width classes, SJF picks among
       (width, long?) classes and Partition among its two sides; classes
       are numbered in key order, so in width order under the first two.
       [mem] lists each class's jobs in [ins] order over
       [cstart.(c), cstart.(c + 1)); [skip] jumps over started jobs in it
       and [chead] is the class's first unstarted position. [heap] holds
       a binary heap on (estimate, [ins]) per class over the same range:
       under SJF the class's waiting jobs, under EASY its arrived
       non-NaN estimates with started jobs deleted lazily. *)
    let key =
      match policy with
      | Fcfs -> None
      | Easy_backfill -> Some (fun e -> wid.(e))
      | Sjf_quota _ -> Some (fun e -> (2 * wid.(e)) + if is_long e then 1 else 0)
      | Partition _ -> Some (fun e -> if is_wide e then 1 else 0)
    in
    let mem = Array.init n Fun.id in
    Option.iter
      (fun key -> Array.stable_sort (fun a b -> Int.compare (key a) (key b)) mem)
      key;
    let cls = Array.make n 0 and cstart = Array.make (n + 1) 0 in
    let nc =
      match key with
      | None -> 0
      | Some key ->
          let c = ref (-1) in
          Array.iteri
            (fun p e ->
              if p = 0 || key e <> key mem.(p - 1) then begin
                incr c;
                cstart.(!c) <- p
              end;
              cls.(e) <- !c)
            mem;
          cstart.(!c + 1) <- n;
          !c + 1
    in
    let cwidth c = wid.(mem.(cstart.(c))) in
    let chead = Array.init nc (fun c -> cstart.(c)) in
    let skip = Array.init n (fun p -> p + 1) in
    (* the first unstarted position at or after [p] in a class ending at
       [lim], compressing the path of skips walked *)
    let find p lim =
      let q = ref p in
      while !q < lim && is_taken mem.(!q) do
        q := skip.(!q)
      done;
      let r = !q and q = ref p in
      while !q < r do
        let nx = skip.(!q) in
        skip.(!q) <- r;
        q := nx
      done;
      r
    in
    (* the class's first unstarted position *)
    let first c =
      let p = find chead.(c) cstart.(c + 1) in
      chead.(c) <- p;
      p
    in
    (* the class's first waiting job, or -1 *)
    let bucket_head c =
      let p = first c in
      if p < cstart.(c + 1) && mem.(p) < !next then mem.(p) else -1
    in
    let heap = Array.make n 0 and hlen = Array.make nc 0 in
    let before a b =
      match Float.compare est.(a) est.(b) with 0 -> a < b | c -> c < 0
    in
    let push c e =
      let base = cstart.(c) in
      let i = ref hlen.(c) in
      hlen.(c) <- !i + 1;
      while !i > 0 && before e heap.(base + ((!i - 1) / 2)) do
        heap.(base + !i) <- heap.(base + ((!i - 1) / 2));
        i := (!i - 1) / 2
      done;
      heap.(base + !i) <- e
    in
    let pop c =
      let base = cstart.(c) and len = hlen.(c) - 1 in
      hlen.(c) <- len;
      if len > 0 then begin
        let e = heap.(base + len) and i = ref 0 and go = ref true in
        while !go do
          let l = (2 * !i) + 1 in
          if l >= len then go := false
          else begin
            let m =
              if l + 1 < len && before heap.(base + l + 1) heap.(base + l) then l + 1
              else l
            in
            if before heap.(base + m) e then begin
              heap.(base + !i) <- heap.(base + m);
              i := m
            end
            else go := false
          end
        done;
        heap.(base + !i) <- e
      end
    in
    (* the class's waiting job first on (estimate, [ins]) under EASY
       (NaN estimates are never pushed), or -1 *)
    let shortest c =
      while hlen.(c) > 0 && is_taken heap.(cstart.(c)) do
        pop c
      done;
      if hlen.(c) > 0 then heap.(cstart.(c)) else -1
    in
    let easy = policy = Easy_backfill in
    let enqueue e =
      match policy with
      | Sjf_quota _ -> push cls.(e) e
      | Easy_backfill -> if not (Float.is_nan est.(e)) then push cls.(e) e
      | Fcfs | Partition _ -> ()
    in
    let take e =
      Bytes.unsafe_set taken e '\001';
      (match policy with
      | Sjf_quota _ -> pop cls.(e)
      | Fcfs | Easy_backfill | Partition _ -> ());
      while !qhead < !next && is_taken !qhead do
        incr qhead
      done
    in
    (* The running set: jobs [rins], finishes [rfin] and dispatch
       ordinals [rord] over [0, !rn), sorted descending on (finish,
       ordinal), so the next finisher is last; grown on demand. *)
    let cap = ref 16 in
    let rfin = ref (Array.make !cap 0.0) and rord = ref (Array.make !cap 0) in
    let rins = ref (Array.make !cap 0) and rn = ref 0 in
    let add_running f o e =
      if !rn = !cap then begin
        let grow a z =
          let b = Array.make (2 * !cap) z in
          Array.blit a 0 b 0 !rn;
          b
        in
        rfin := grow !rfin 0.0;
        rord := grow !rord 0;
        rins := grow !rins 0;
        cap := 2 * !cap
      end;
      let rfin = !rfin and rord = !rord and rins = !rins in
      (* the new ordinal is the largest, so (f, o) goes before every
         entry whose finish is not above f *)
      let lo = ref 0 and hi = ref !rn in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Float.compare rfin.(mid) f > 0 then lo := mid + 1 else hi := mid
      done;
      let p = !lo in
      Array.blit rfin p rfin (p + 1) (!rn - p);
      Array.blit rord p rord (p + 1) (!rn - p);
      Array.blit rins p rins (p + 1) (!rn - p);
      rfin.(p) <- f;
      rord.(p) <- o;
      rins.(p) <- e;
      incr rn
    in
    let free = ref pool and long_used = ref 0 and wide_used = ref 0 in
    let queued = ref 0 and shorts_queued = ref 0 in
    let dispatched = ref 0 and completed = ref 0 and waits = ref [] in
    let clk = { now = 0.0; busy = 0.0; shadow = 0.0 } in
    let fits e = wid.(e) <= !free in
    (* EASY shadow: the earliest time [need] units will be free, given the
       running set and, with [extra], one more job of width [xw]
       finishing at [xf], into [clk.shadow]; returns how many units are free
       then. The set is in finish order, so simultaneous finishers are
       adjacent: each distinct finish time frees their summed width at
       once. *)
    let shadow_scan ~free ~need ~extra ~xf ~xw =
      let rfin = !rfin and rins = !rins in
      let free = ref free and i = ref (!rn - 1) and x = ref extra in
      clk.shadow <- (if !free >= need then clk.now else infinity);
      while !free < need && (!i >= 0 || !x) do
        (* the next group's first finish; the extra job's ordinal is the
           largest, so it leads only a strictly earlier finish *)
        let f =
          if !i < 0 || (!x && Float.compare xf rfin.(!i) < 0) then xf
          else rfin.(!i)
        in
        while !i >= 0 && Float.equal rfin.(!i) f do
          free := !free + wid.(rins.(!i));
          decr i
        done;
        if !x && Float.equal xf f then begin
          free := !free + xw;
          x := false
        end;
        if !free >= need then clk.shadow <- f
      done;
      !free
    in
    (* EASY backfill: the blocked head reserves its shadow time; a later
       job may start now only if it fits, and finishes by then or fits
       the units still spare at the shadow once the head has started.
       The candidate is the first such job in [ins] order: the earliest
       of the per-class firsts over the width classes that fit. Every
       arrived job before the head has started and the head's class does
       not fit, so a class's first unstarted job is its first after the
       head.
       A class within [spare] qualifies whole. A wider class has a
       qualifying job only if its shortest estimate finishes by the
       shadow ([t + est] grows with [est]); then it is walked from the
       head, but only up to the best job found so far. *)
    let easy_backfill head =
      let free_at_shadow = shadow_scan ~free:!free ~need:wid.(head) ~extra:false ~xf:0.0 ~xw:0
      in
      let shadow_t = clk.shadow and now = clk.now in
      let spare = free_at_shadow - wid.(head) in
      let best = ref max_int and c = ref 0 in
      while !c < nc && cwidth !c <= !free do
        let lim = cstart.(!c + 1) and p = first !c in
        let stop = min !best !next in
        if cwidth !c <= spare then begin
          if p < lim && mem.(p) < stop then best := mem.(p)
        end
        else begin
          let s = shortest !c in
          if s >= 0 && now +. est.(s) <= shadow_t then begin
            let p = ref p in
            while !p < lim && mem.(!p) < stop do
              if now +. est.(mem.(!p)) <= shadow_t then begin
                best := mem.(!p);
                p := lim
              end
              else p := find (!p + 1) lim
            done
          end
        end;
        incr c
      done;
      let e = !best in
      if e = max_int then -1
      else begin
        if check then begin
          (* the invariant EASY promises the reserved head: starting the
             backfilled job must not move the head's shadow *)
          ignore
            (shadow_scan ~free:(!free - wid.(e)) ~need:wid.(head)
               ~extra:true ~xf:(now +. est.(e)) ~xw:wid.(e));
          if clk.shadow > shadow_t +. 1e-9 then
            invalid_arg
              (Fmt.str
                 "easy_backfill: job #%d (width %d, estimate %.3f s) delays \
                  the reserved head #%d: shadow %.6f -> %.6f"
                 order.(e) wid.(e) est.(e) order.(head) shadow_t clk.shadow)
        end;
        e
      end
    in
    let pick () =
      match policy with
      | Fcfs | Easy_backfill ->
          let head = !qhead in
          if head >= !next then -1
          else if fits head then head
          else if easy then easy_backfill head
          else -1
      | Sjf_quota q ->
          (* the quota reserves capacity for short jobs, but binds only
             while shorts are waiting, and never blocks the only long
             job (guaranteed progress); at q = 1 it never binds. Both
             tests depend on the job's class alone, so the first job in
             (estimate, [ins]) order that passes them is the first among
             the heads of the classes that pass. *)
          let best = ref (-1) and c = ref 0 in
          while !c < nc && cwidth !c <= !free do
            let top = heap.(cstart.(!c)) in
            if hlen.(!c) > 0
               && ((not (is_long top))
                  || !shorts_queued = 0
                  || !long_used = 0
                  || float_of_int (!long_used + cwidth !c)
                     <= q *. float_of_int pool)
               && (!best < 0 || before top !best)
            then best := top;
            incr c
          done;
          !best
      | Partition wide_frac ->
          (* each side is FCFS over its own jobs: a job is passed over
             only once an earlier job of its side could not start, so a
             draining wide gang never blocks the small-job stream. Only
             each side's first job is a candidate; the earlier of those
             that fit their side starts. *)
          let wide_units = int_of_float (wide_frac *. float_of_int pool) in
          let small_units = pool - wide_units in
          let side_head c =
            let e = bucket_head c in
            if e < 0 || not (fits e) then -1
            else if is_wide e then if !wide_used + wid.(e) <= wide_units then e else -1
            else if pool - !free - !wide_used + wid.(e) <= small_units then e
            else -1
          in
          let w = ref (-1) and s = ref (-1) in
          for c = 0 to nc - 1 do
            let e = side_head c in
            if e >= 0 then if is_wide e then w := e else s := e
          done;
          if !w < 0 then !s else if !s < 0 then !w else min !w !s
    in
    let rec start_jobs () =
      let e = pick () in
      if e >= 0 then begin
        take e;
        decr queued;
        if not (is_long e) then decr shorts_queued;
        let now = clk.now in
        let s = h.dispatch ~t:now job.(e) in
        (* a NaN finish never comes due either *)
        if Float.is_nan s then
          invalid_arg
            (Fmt.str "Scheduler.Core.run: job #%d has a NaN service time"
               order.(e));
        free := !free - wid.(e);
        if is_long e then long_used := !long_used + wid.(e);
        if is_wide e then wide_used := !wide_used + wid.(e);
        waits := (now -. arr.(e)) :: !waits;
        clk.busy <- clk.busy +. (float_of_int wid.(e) *. s);
        add_running (now +. s) !dispatched e;
        incr dispatched;
        start_jobs ()
      end
    in
    (* the running set is in finish order, so the jobs due now are its
       tail; they retire most recent dispatch first *)
    let retire () =
      let now = clk.now in
      let rfin = !rfin and rord = !rord and rins = !rins in
      let k = ref !rn in
      while !k > 0 && due ~now rfin.(!k - 1) do
        decr k
      done;
      let k = !k in
      (* insertion sort of the tail on descending ordinal; simultaneous
         finishers are already in that order *)
      for i = k + 1 to !rn - 1 do
        let o = rord.(i) and e = rins.(i) and j = ref (i - 1) in
        while !j >= k && rord.(!j) < o do
          rord.(!j + 1) <- rord.(!j);
          rins.(!j + 1) <- rins.(!j);
          decr j
        done;
        rord.(!j + 1) <- o;
        rins.(!j + 1) <- e
      done;
      let last = !rn in
      rn := k;
      for i = k to last - 1 do
        let e = rins.(i) in
        free := !free + wid.(e);
        if is_long e then long_used := !long_used - wid.(e);
        if is_wide e then wide_used := !wide_used - wid.(e);
        incr completed;
        h.on_finish ~t:now job.(e)
      done
    in
    (* jobs arrive in [ins] order, so the jobs due now are a prefix of the
       pending ones *)
    let arrive () =
      let now = clk.now in
      while !next < n && due ~now arr.(!next) do
        let e = !next in
        incr next;
        h.on_submit job.(e);
        incr queued;
        if not (is_long e) then incr shorts_queued;
        enqueue e
      done
    in
    h.after_event ~t:0.0 ~depth:0 ~free:pool;
    while !next < n || !rn > 0 do
      let finish = if !rn > 0 then !rfin.(!rn - 1) else infinity in
      let now = if !next < n then earliest arr.(!next) finish else finish in
      clk.now <- now;
      retire ();
      arrive ();
      start_jobs ();
      h.after_event ~t:now ~depth:!queued ~free:!free
    done;
    { makespan = clk.now; busy = clk.busy; completed = !completed; waits = !waits }
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

(* the Opt run on [Core]; [record] sees each job as it starts *)
let run ~gpus ?check ~record policy jobs =
  let policy =
    match policy with
    | Fcfs -> Core.Fcfs
    | Fcfs_backfill -> Core.Easy_backfill
    | Sjf -> Core.Sjf_quota 1.0
    | Sjf_quota q -> Core.Sjf_quota q
  in
  let { Core.makespan; busy; completed; waits } =
    Core.run ?check ~pool:gpus
      {
        Core.width = (fun j -> j.gpus);
        arrival = (fun j -> j.arrival);
        estimate = (fun j -> j.duration);
        dispatch =
          (fun ~t j ->
            record ~t j;
            j.duration);
        on_submit = ignore;
        on_finish = (fun ~t:_ _ -> ());
        after_event = (fun ~t:_ ~depth:_ ~free:_ -> ());
      }
      policy jobs
  in
  (* reverse start order: the order the mean has always been summed in *)
  let waits = Array.of_list waits in
  {
    makespan;
    utilization = busy /. (float_of_int gpus *. max 1e-9 makespan);
    mean_wait = (if Array.length waits = 0 then 0.0 else Icoe_util.Stats.mean waits);
    max_wait = (if Array.length waits = 0 then 0.0 else snd (Icoe_util.Stats.min_max waits));
    completed;
  }

let simulate_schedule ?(gpus = 16) ?check policy jobs =
  let schedule = ref [] in
  let m =
    run ~gpus ?check policy jobs ~record:(fun ~t j ->
        schedule := (j.id, t, t +. j.duration) :: !schedule)
  in
  (m, List.rev !schedule)

let simulate ?(gpus = 16) ?check policy jobs =
  run ~gpus ?check policy jobs ~record:(fun ~t:_ _ -> ())

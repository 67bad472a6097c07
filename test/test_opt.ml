(* Tests for the Opt activity: job-scheduler policies (Sec 4.7 results)
   and SIMP topology optimization with the texture-cache lever. *)

open Opt

let rng () = Icoe_util.Rng.create 121

(* --- scheduler --- *)

let test_batch_all_complete () =
  let jobs = Scheduler.batch_workload ~rng:(rng ()) ~n:200 () in
  List.iter
    (fun pol ->
      let m = Scheduler.simulate ~gpus:10 pol jobs in
      Alcotest.(check int)
        (Scheduler.policy_name pol ^ " completes all")
        200 m.Scheduler.completed;
      Alcotest.(check bool) "utilization sane" true
        (m.Scheduler.utilization > 0.0 && m.Scheduler.utilization <= 1.0 +. 1e-9))
    [ Scheduler.Fcfs; Scheduler.Sjf; Scheduler.Sjf_quota 0.5 ]

let test_sjf_quota_beats_fcfs_utilization () =
  (* the batch-arrival conclusion: SJF with quota raises GPU utilization *)
  let jobs = Scheduler.batch_workload ~rng:(rng ()) ~n:400 () in
  let fcfs = Scheduler.simulate ~gpus:16 Scheduler.Fcfs jobs in
  let sjfq = Scheduler.simulate ~gpus:16 (Scheduler.Sjf_quota 0.5) jobs in
  Alcotest.(check bool)
    (Fmt.str "SJF+quota %.3f > FCFS %.3f" sjfq.Scheduler.utilization
       fcfs.Scheduler.utilization)
    true
    (sjfq.Scheduler.utilization > fcfs.Scheduler.utilization);
  Alcotest.(check bool) "and a shorter makespan" true
    (sjfq.Scheduler.makespan < fcfs.Scheduler.makespan)

let test_sjf_quota_bounds_starvation () =
  (* pure SJF can starve long jobs; the quota reserves capacity *)
  let jobs = Scheduler.batch_workload ~rng:(rng ()) ~n:400 () in
  let sjf = Scheduler.simulate ~gpus:16 Scheduler.Sjf jobs in
  let sjfq = Scheduler.simulate ~gpus:16 (Scheduler.Sjf_quota 0.5) jobs in
  Alcotest.(check bool) "quota costs little utilization" true
    (sjfq.Scheduler.utilization > 0.9 *. sjf.Scheduler.utilization)

let test_throttling_conclusion () =
  (* Poisson arrivals: above capacity the queue (mean wait) blows up;
     throttled below capacity it stays modest *)
  let gpus = 8 in
  let mean_duration = exp (1.0 +. (0.6 *. 0.6 /. 2.0)) in
  let cap = Scheduler.capacity ~gpus ~mean_duration in
  let run rate =
    let jobs = Scheduler.poisson_workload ~rng:(rng ()) ~rate ~horizon:2000.0 () in
    Scheduler.simulate ~gpus Scheduler.Sjf jobs
  in
  let over = run (1.3 *. cap) in
  let under = run (0.8 *. cap) in
  Alcotest.(check bool)
    (Fmt.str "overloaded wait %.1f >> throttled %.1f" over.Scheduler.mean_wait
       under.Scheduler.mean_wait)
    true
    (over.Scheduler.mean_wait > 10.0 *. max 0.1 under.Scheduler.mean_wait);
  Alcotest.(check bool) "throttled wait small" true (under.Scheduler.mean_wait < 5.0)

let test_backfill_beats_fcfs () =
  (* EASY backfill fills the holes FCFS leaves while never delaying the
     blocked head *)
  let jobs = Scheduler.batch_workload ~rng:(rng ()) ~n:400 () in
  let fcfs = Scheduler.simulate ~gpus:16 Scheduler.Fcfs jobs in
  let bf = Scheduler.simulate ~gpus:16 Scheduler.Fcfs_backfill jobs in
  Alcotest.(check int) "all complete" 400 bf.Scheduler.completed;
  Alcotest.(check bool)
    (Fmt.str "backfill util %.3f > fcfs %.3f" bf.Scheduler.utilization
       fcfs.Scheduler.utilization)
    true
    (bf.Scheduler.utilization > fcfs.Scheduler.utilization);
  Alcotest.(check bool) "mean wait improves" true
    (bf.Scheduler.mean_wait < fcfs.Scheduler.mean_wait)

let test_backfill_simultaneous_finishes () =
  (* regression: two running jobs sharing a finish time used to be
     double-counted in the shadow walk (duplicate finish entries each
     re-summed every job at that time), landing the shadow too early.
     Here j0 and j1 both finish at t=2; the correct shadow for the 5-GPU
     head is t=6, and the 3 s candidate must backfill at t=0. *)
  let jobs =
    [
      { Scheduler.id = 0; arrival = 0.0; duration = 2.0; gpus = 2 };
      { Scheduler.id = 1; arrival = 0.0; duration = 2.0; gpus = 1 };
      { Scheduler.id = 2; arrival = 0.0; duration = 6.0; gpus = 1 };
      { Scheduler.id = 3; arrival = 0.0; duration = 1.0; gpus = 5 };
      { Scheduler.id = 4; arrival = 0.0; duration = 3.0; gpus = 1 };
    ]
  in
  let m, sched =
    Scheduler.simulate_schedule ~gpus:5 ~check:true Scheduler.Fcfs_backfill jobs
  in
  let start id =
    match List.find_opt (fun (i, _, _) -> i = id) sched with
    | Some (_, s, _) -> s
    | None -> Alcotest.failf "job %d never started" id
  in
  Alcotest.(check (float 1e-9)) "candidate backfills immediately" 0.0 (start 4);
  Alcotest.(check (float 1e-9)) "head starts at its true shadow" 6.0 (start 3);
  Alcotest.(check (float 1e-9)) "makespan" 7.0 m.Scheduler.makespan;
  Alcotest.(check int) "all complete" 5 m.Scheduler.completed

let test_backfill_spare_capacity () =
  (* the spare disjunct was dead code (free-now minus head, always
     negative when the head is blocked). With spare = free-at-shadow
     minus head GPUs, a job running past the shadow may use genuinely
     spare capacity without delaying the head... *)
  let jobs gpus2 =
    [
      { Scheduler.id = 0; arrival = 0.0; duration = 4.0; gpus = 3 };
      { Scheduler.id = 1; arrival = 0.0; duration = 1.0; gpus = 4 };
      { Scheduler.id = 2; arrival = 0.0; duration = 10.0; gpus = gpus2 };
    ]
  in
  let start sched id =
    match List.find_opt (fun (i, _, _) -> i = id) sched with
    | Some (_, s, _) -> s
    | None -> Alcotest.failf "job %d never started" id
  in
  let m, sched =
    Scheduler.simulate_schedule ~gpus:5 ~check:true Scheduler.Fcfs_backfill
      (jobs 1)
  in
  Alcotest.(check (float 1e-9)) "1-GPU job uses the spare GPU" 0.0 (start sched 2);
  Alcotest.(check (float 1e-9)) "head not delayed" 4.0 (start sched 1);
  Alcotest.(check (float 1e-9)) "makespan" 10.0 m.Scheduler.makespan;
  (* ...but a 2-GPU job exceeds the spare and must wait for the head *)
  let _, sched2 =
    Scheduler.simulate_schedule ~gpus:5 ~check:true Scheduler.Fcfs_backfill
      (jobs 2)
  in
  Alcotest.(check (float 1e-9)) "2-GPU job must not backfill" 5.0 (start sched2 2);
  Alcotest.(check (float 1e-9)) "head still at its shadow" 4.0 (start sched2 1)

let test_backfill_agrees_with_fcfs_when_impossible () =
  (* every job needs the whole pool, so nothing can ever backfill: the
     fixed EASY schedule must match FCFS exactly *)
  let jobs =
    List.init 30 (fun i ->
        {
          Scheduler.id = i;
          arrival = float_of_int i *. 0.7;
          duration = 1.0 +. float_of_int (i * 7 mod 5);
          gpus = 6;
        })
  in
  let mf, sf = Scheduler.simulate_schedule ~gpus:6 Scheduler.Fcfs jobs in
  let mb, sb =
    Scheduler.simulate_schedule ~gpus:6 ~check:true Scheduler.Fcfs_backfill jobs
  in
  Alcotest.(check bool) "identical schedules" true (sf = sb);
  Alcotest.(check bool) "identical metrics" true (mf = mb)

let test_fcfs_order_respected () =
  (* with 1 GPU and 1-GPU jobs, FCFS runs in arrival order: max wait equals
     sum of earlier durations *)
  let jobs =
    [
      { Scheduler.id = 0; arrival = 0.0; duration = 2.0; gpus = 1 };
      { Scheduler.id = 1; arrival = 0.0; duration = 1.0; gpus = 1 };
      { Scheduler.id = 2; arrival = 0.0; duration = 1.0; gpus = 1 };
    ]
  in
  let m = Scheduler.simulate ~gpus:1 Scheduler.Fcfs jobs in
  Alcotest.(check (float 1e-9)) "makespan" 4.0 m.Scheduler.makespan;
  Alcotest.(check (float 1e-9)) "max wait = 3" 3.0 m.Scheduler.max_wait

(* --- pinned schedules --- *)

(* Whole-schedule digests: every started job's id with the exact bits of
   its start and finish, then the exact bits of the summary metrics
   ([mean_wait] also pins the order the waits are summed in). The
   expected values were recorded from the scheduler before it moved onto
   the shared scheduling core; a decision that moves changes a digest. *)
let schedule_digest policy jobs =
  let m, sched = Scheduler.simulate_schedule policy jobs in
  let b = Buffer.create 4096 in
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun (id, s, f) -> Printf.bprintf b "%d %Lx %Lx\n" id (bits s) (bits f))
    sched;
  Printf.bprintf b "%Lx %Lx %Lx %Lx %d" (bits m.Scheduler.makespan)
    (bits m.Scheduler.utilization) (bits m.Scheduler.mean_wait)
    (bits m.Scheduler.max_wait) m.Scheduler.completed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_streams =
  let rng = Icoe_util.Rng.create in
  [
    ("batch-3", Scheduler.batch_workload ~rng:(rng 3) ~n:400 ());
    ("batch-4", Scheduler.batch_workload ~rng:(rng 4) ~n:400 ());
    ( "poisson-5",
      Scheduler.poisson_workload ~rng:(rng 5) ~rate:6.0 ~horizon:200.0 () );
  ]

let pinned_digests =
  [
    ( "batch-3",
      [ "cfa2a0a2d180739bdc15bcf8ffad5673"; "8e3926bfd917055d65e7fd0313249a91";
        "e102cddaa1db0cd4197d682e97e0d0b8"; "34d1aea6881f9b30e396f8e9d9dcee5c" ] );
    ( "batch-4",
      [ "432bc7d80882d830484449706325ac92"; "a8e013eeb32d55779b58d7391b397c63";
        "ef5a41d00bdda71ce1ee21c2ae710660"; "2c4851fdfbab64929ae7616af622b4ce" ] );
    ( "poisson-5",
      [ "5660db6135c62dd94ebdc296e5a91d74"; "5660db6135c62dd94ebdc296e5a91d74";
        "6ada9b08ea36ccea3ccbff7940d4de96"; "6ada9b08ea36ccea3ccbff7940d4de96" ] );
  ]

let test_pinned_schedules () =
  let policies =
    [ Scheduler.Fcfs; Scheduler.Fcfs_backfill; Scheduler.Sjf;
      Scheduler.Sjf_quota 0.5 ]
  in
  List.iter
    (fun (name, jobs) ->
      List.iter2
        (fun pol expected ->
          Alcotest.(check string)
            (name ^ " " ^ Scheduler.policy_name pol)
            expected (schedule_digest pol jobs))
        policies
        (List.assoc name pinned_digests))
    pinned_streams

(* --- the list-based scheduling core, kept as the oracle --- *)

(* [Scheduler.Core.run] as it was before the indexed queues: lists for
   the wait queue and the running set, a filter per removal, a stable
   sort per SJF pick and a partition per event. Kept as the exact oracle
   of the decision-for-decision contract (like [Ref_mlp] in test_dlearn):
   the property below runs both on the same random streams. *)
module Ref_core = struct
  open Scheduler.Core

  type 'a entry = {
    job : 'a;
    seq : int;
    width : int;
    arrival : float;
    est : float;
  }

  let due ~now f = f <= now +. 1e-12
  let earliest (a : float) b = if a <= b then a else b

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
    let entries =
      List.filter (fun j -> h.width j <= pool) jobs
      |> List.mapi (fun seq job ->
             let width = h.width job and arrival = h.arrival job in
             { job; seq; width; arrival; est = h.estimate job })
    in
    let median =
      match entries with
      | [] -> 1.0
      | _ ->
          Icoe_util.Stats.median
            (Array.of_list (List.map (fun e -> e.est) entries))
    in
    let is_long e = e.est > median in
    let wide_cut = max 2 (pool / 8) in
    let is_wide e = e.width >= wide_cut in
    let pending =
      ref (List.sort (fun a b -> Float.compare a.arrival b.arrival) entries)
    in
    let queue = ref [] in
    let queued = ref 0 and shorts_queued = ref 0 in
    let running = ref [] in
    let free = ref pool and long_used = ref 0 and wide_used = ref 0 in
    let t = ref 0.0 in
    let busy = ref 0.0 and waits = ref [] and completed = ref 0 in
    let fits e = e.width <= !free in
    let take e =
      queue := List.filter (fun x -> x.seq <> e.seq) !queue;
      e
    in
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
    let rec split_due ~now acc = function
      | e :: rest when due ~now e.arrival -> split_due ~now (e :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec loop () =
      match next_event () with
      | None -> ()
      | Some now ->
          t := now;
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

(* One random stream through a core: every hook call in order (the
   exact bits of each time) and the outcome, or the [~check] failure. *)
type hook_event =
  | Submit of int
  | Dispatch of int * int64
  | Finish of int * int64
  | After of int64 * int * int

let trace_core run ~pool policy jobs =
  let run = run ~check:(policy = Scheduler.Core.Easy_backfill) in
  let ev = ref [] in
  let push e = ev := e :: !ev in
  let bits = Int64.bits_of_float in
  (* (id, width, arrival, estimate, actual service) *)
  let hooks =
    {
      Scheduler.Core.width = (fun (_, w, _, _, _) -> w);
      arrival = (fun (_, _, a, _, _) -> a);
      estimate = (fun (_, _, _, e, _) -> e);
      dispatch =
        (fun ~t (id, _, _, _, s) ->
          push (Dispatch (id, bits t));
          s);
      on_submit = (fun (id, _, _, _, _) -> push (Submit id));
      on_finish = (fun ~t (id, _, _, _, _) -> push (Finish (id, bits t)));
      after_event =
        (fun ~t ~depth ~free -> push (After (bits t, depth, free)));
    }
  in
  let outcome =
    match run ~pool hooks policy jobs with
    | { Scheduler.Core.makespan; busy; completed; waits } ->
        Ok (bits makespan, bits busy, completed, List.map bits waits)
    | exception Invalid_argument msg -> Error msg
  in
  (List.rev !ev, outcome)

let prop_core_matches_list_oracle =
  (* small streams on coarse grids, so arrivals, estimates and finishes
     collide often; widths run past the pool; actual service differs
     from the estimate on some jobs, as placement penalties make it in
     the service layer *)
  let gen =
    QCheck.Gen.(
      let* pool = int_range 1 8 in
      let* n = int_range 0 40 in
      let job id =
        let* width = int_range 1 (pool + 1) in
        let* arrival = map (fun k -> 0.5 *. float_of_int k) (int_bound 12) in
        let* est = map (fun k -> 0.5 *. float_of_int (k + 1)) (int_bound 5) in
        let* stretch = oneofl [ 1.0; 1.0; 1.5; 0.5 ] in
        return (id, width, arrival, est, est *. stretch)
      in
      let* jobs = flatten_l (List.init n job) in
      let* policy =
        oneofl
          Scheduler.Core.
            [ Fcfs; Easy_backfill; Sjf_quota 0.25; Sjf_quota 0.5;
              Sjf_quota 1.0; Partition 0.25; Partition 0.5 ]
      in
      return (pool, policy, jobs))
  in
  QCheck.Test.make ~name:"core matches the list-based oracle" ~count:500
    (QCheck.make gen) (fun (pool, policy, jobs) ->
      trace_core (fun ~check -> Scheduler.Core.run ~check) ~pool policy jobs
      = trace_core (fun ~check -> Ref_core.run ~check) ~pool policy jobs)

(* EASY on an overloaded queue: everything arrives at t = 0, so the
   queue is hundreds deep and most picks are blocked ones; wide pools
   give many width classes between the spare units and the free ones,
   where the candidate search walks a bucket only up to the best job
   found so far *)
let prop_core_matches_oracle_overloaded =
  let gen =
    QCheck.Gen.(
      let* pool = int_range 1 32 in
      let* n = int_range 0 300 in
      let job id =
        let* width = int_range 1 (pool + 1) in
        let* est = map (fun k -> 0.5 *. float_of_int (k + 1)) (int_bound 11) in
        let* stretch = oneofl [ 1.0; 1.0; 1.5; 0.5 ] in
        return (id, width, 0.0, est, est *. stretch)
      in
      let* jobs = flatten_l (List.init n job) in
      return (pool, jobs))
  in
  QCheck.Test.make ~name:"core matches the oracle on overloaded EASY queues"
    ~count:100 (QCheck.make gen) (fun (pool, jobs) ->
      let policy = Scheduler.Core.Easy_backfill in
      trace_core (fun ~check -> Scheduler.Core.run ~check) ~pool policy jobs
      = trace_core (fun ~check -> Ref_core.run ~check) ~pool policy jobs)

(* service scale: wide pools, long streams drawn from a few width
   classes, and arrivals and estimates on a coarse grid, so finishes
   collide, the running set is deep and the class buckets hold long runs
   of started jobs for the skips and the lazily pruned heaps to pass *)
let prop_core_matches_oracle_service_scale =
  let gen =
    QCheck.Gen.(
      let* pool = int_range 64 256 in
      let* n = int_range 200 1500 in
      let* widths =
        list_size (int_range 2 5) (map (fun k -> 1 + (k * pool / 16)) (int_bound 16))
      in
      let* per_s = float_range 0.5 4.0 in
      let job id =
        let* width = oneofl widths in
        let* arrival =
          map (fun k -> float_of_int k) (int_bound (int_of_float (float_of_int n /. per_s)))
        in
        let* est = map (fun k -> 2.0 *. float_of_int (k + 1)) (int_bound 15) in
        let* stretch = oneofl [ 1.0; 1.0; 1.0; 1.5; 0.5 ] in
        return (id, width, arrival, est, est *. stretch)
      in
      let* jobs = flatten_l (List.init n job) in
      let* policy =
        oneofl
          Scheduler.Core.[ Fcfs; Easy_backfill; Sjf_quota 0.5; Partition 0.5 ]
      in
      return (pool, policy, jobs))
  in
  QCheck.Test.make ~name:"core matches the oracle at service scale" ~count:12
    (QCheck.make gen) (fun (pool, policy, jobs) ->
      trace_core (fun ~check -> Scheduler.Core.run ~check) ~pool policy jobs
      = trace_core (fun ~check -> Ref_core.run ~check) ~pool policy jobs)

(* --- topopt --- *)

let test_topopt_volume_constraint () =
  let t = Topopt.create ~volfrac:0.4 ~nx:20 ~ny:16 () in
  ignore (Topopt.optimize ~iters:10 t);
  Alcotest.(check bool)
    (Fmt.str "volume %.3f ~ 0.4" (Topopt.volume t))
    true
    (Float.abs (Topopt.volume t -. 0.4) < 0.02)

let compliance_at_full_penalization nx ny rho =
  (* evaluate any design at the target penalization so designs are
     comparable (the continuation ramp makes the in-run history mixed) *)
  let t = Topopt.create ~nx ~ny () in
  Array.blit rho 0 t.Topopt.rho 0 (nx * ny);
  let u, _ = Topopt.solve_state t in
  Linalg.Vec.dot u
    (Array.init (nx * ny) (fun k -> if k / nx = ny - 1 then 1.0 else 0.0))

let test_topopt_compliance_decreases () =
  let nx = 20 and ny = 16 in
  let t = Topopt.create ~nx ~ny () in
  let uniform = compliance_at_full_penalization nx ny t.Topopt.rho in
  let hist = Topopt.optimize ~iters:40 t in
  let final = compliance_at_full_penalization nx ny t.Topopt.rho in
  Alcotest.(check bool)
    (Fmt.str "optimized %.0f << uniform %.0f" final uniform)
    true
    (final < uniform /. 3.0);
  Alcotest.(check bool) "all finite" true (Array.for_all Float.is_finite hist)

let test_topopt_forms_structure () =
  (* the design polarizes into a funnel: mostly solid-or-void cells, with
     solid material over the sink and void in the far corners *)
  let t = Topopt.create ~nx:20 ~ny:16 () in
  ignore (Topopt.optimize ~iters:40 t);
  let extreme =
    Array.fold_left
      (fun acc r -> if r > 0.8 || r < 0.1 then acc + 1 else acc)
      0 t.Topopt.rho
  in
  Alcotest.(check bool)
    (Fmt.str "%d/320 cells polarized" extreme)
    true
    (extreme > 200);
  Alcotest.(check bool) "solid above the sink" true
    (t.Topopt.rho.(Topopt.idx t 10 1) > 0.8);
  Alcotest.(check bool) "void in the bottom corner" true
    (t.Topopt.rho.(Topopt.idx t 0 1) < 0.1)

(* The closure-based SIMP operator and OC update that [Topopt.apply] and
   [Topopt.oc_update] replaced: [rho ** penal] per cell per link,
   [couple]/[grad] closures over float refs, polymorphic [max]/[min].
   Kept as the bit-exact oracle of the flat loops. *)
module Ref_topopt = struct
  open Topopt

  let apply t u y =
    let nx = t.nx and ny = t.ny in
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let k = idx t i j in
        if is_sink t i j then y.(k) <- u.(k)
        else begin
          let kc = conductivity t k in
          let acc = ref 0.0 and diag = ref 0.0 in
          let couple k2 =
            let kk = 0.5 *. (kc +. conductivity t k2) in
            diag := !diag +. kk;
            acc := !acc +. (kk *. u.(k2))
          in
          if i > 0 then couple (idx t (i - 1) j);
          if i < nx - 1 then couple (idx t (i + 1) j);
          if j > 0 then couple (idx t i (j - 1));
          if j < ny - 1 then couple (idx t i (j + 1));
          y.(k) <- (!diag *. u.(k)) -. !acc
        end
      done
    done

  let solve_state ?(tol = 1e-8) t =
    let n = t.nx * t.ny in
    let b = load t in
    let y = Array.make n 0.0 in
    let op u =
      apply t u y;
      Array.copy y
    in
    let r = Ref_cg.cg ~tol ~max_iter:(8 * n) ~op b (Array.make n 0.0) in
    t.cg_iters_total <- t.cg_iters_total + r.Linalg.Krylov.iters;
    (r.Linalg.Krylov.x, r.Linalg.Krylov.iters)

  (* the filtered cell sensitivities -dC/drho *)
  let sensitivities t u =
    let n = t.nx * t.ny in
    let sens = Array.make n 0.0 in
    for j = 0 to t.ny - 1 do
      for i = 0 to t.nx - 1 do
        let k = idx t i j in
        if not (is_sink t i j) then begin
          let dk_drho =
            t.penal *. (1.0 -. rho_min) *. (t.rho.(k) ** (t.penal -. 1.0))
          in
          let g2 = ref 0.0 in
          let grad k2 =
            let d = u.(k) -. u.(k2) in
            g2 := !g2 +. (0.5 *. d *. d)
          in
          if i > 0 then grad (idx t (i - 1) j);
          if i < t.nx - 1 then grad (idx t (i + 1) j);
          if j > 0 then grad (idx t i (j - 1));
          if j < t.ny - 1 then grad (idx t i (j + 1));
          sens.(k) <- dk_drho *. !g2
        end
      done
    done;
    let filtered = Array.make n 0.0 in
    for j = 0 to t.ny - 1 do
      for i = 0 to t.nx - 1 do
        let acc = ref 0.0 and cnt = ref 0 in
        for dj = -1 to 1 do
          for di = -1 to 1 do
            let i2 = i + di and j2 = j + dj in
            if i2 >= 0 && i2 < t.nx && j2 >= 0 && j2 < t.ny then begin
              acc := !acc +. sens.(idx t i2 j2);
              incr cnt
            end
          done
        done;
        filtered.(idx t i j) <- !acc /. float_of_int !cnt
      done
    done;
    filtered

  (* a cell's new density at q = sens/lam *)
  let new_density r q =
    let scale = max 0.0 q ** 0.3 in
    max rho_min (min 1.0 (max (r -. 0.05) (min (r +. 0.05) (r *. scale))))

  (* [on_eval r q] sees every bisection evaluation: the cell's density
     and q *)
  let oc_update ?(on_eval = fun _ _ -> ()) t u =
    let n = t.nx * t.ny in
    let b = load t in
    t.compliance <- Linalg.Vec.dot u b;
    let sens = sensitivities t u in
    let total = float_of_int n *. t.volfrac in
    let lo = ref 1e-12 and hi = ref (1.0 +. Array.fold_left max 0.0 sens) in
    let new_rho = Array.make n 0.0 in
    for _ = 1 to 60 do
      let lam = 0.5 *. (!lo +. !hi) in
      let vol = ref 0.0 in
      for k = 0 to n - 1 do
        let q = sens.(k) /. lam in
        on_eval t.rho.(k) q;
        let v = new_density t.rho.(k) q in
        new_rho.(k) <- v;
        vol := !vol +. v
      done;
      if !vol > total then lo := lam else hi := lam
    done;
    Array.blit new_rho 0 t.rho 0 n

  let optimize ?(iters = 20) t =
    let target = t.penal in
    Array.init iters (fun it ->
        t.penal <-
          min target
            (1.0
            +. (target -. 1.0) *. float_of_int it /. (0.5 *. float_of_int iters)
            );
        let u, _ = solve_state t in
        oc_update t u;
        t.compliance)
end

let test_topopt_matches_oracle () =
  let bits a = Array.map Int64.bits_of_float a in
  let t = Topopt.create ~nx:20 ~ny:16 () and o = Topopt.create ~nx:20 ~ny:16 () in
  let ht = Topopt.optimize ~iters:40 t and ho = Ref_topopt.optimize ~iters:40 o in
  Alcotest.(check bool) "compliance history" true (bits ht = bits ho);
  Alcotest.(check bool) "rho" true (bits t.Topopt.rho = bits o.Topopt.rho);
  Alcotest.(check int64) "compliance"
    (Int64.bits_of_float o.Topopt.compliance)
    (Int64.bits_of_float t.Topopt.compliance);
  Alcotest.(check int) "cg iterations" o.Topopt.cg_iters_total
    t.Topopt.cg_iters_total;
  (* and one operator application on the optimized design *)
  let n = 20 * 16 in
  let u = Array.init n (fun k -> sin (float_of_int k)) in
  let y = Array.make n 0.0 and y' = Array.make n 0.0 in
  Topopt.apply (Topopt.stencil t) u y;
  Ref_topopt.apply o u y';
  Alcotest.(check bool) "apply" true (bits y = bits y')

(* The stencil operator and the in-place CG against the closure-based
   operator and [Ref_cg] on grids that hit every branch: a lone sink
   (1x1), a single column or row (no interior, sinks on the row), the
   smallest interiors and the harness's 20x16, at random densities and
   exponents. One input is all -0.0, where an interior sum that did not
   start from 0.0 flips the sign of every output. *)
let topopt_grids =
  [ (1, 1); (1, 5); (5, 1); (2, 2); (3, 3); (7, 5); (20, 16); (33, 17) ]

let prop_topopt_stencil_matches_oracle =
  QCheck.Test.make ~name:"stencil and in-place cg match the oracle" ~count:1
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let bits a = Array.map Int64.bits_of_float a in
      List.for_all
        (fun (nx, ny) ->
          let n = nx * ny in
          let penal = Icoe_util.Rng.uniform rng 1.0 5.0 in
          let rho =
            Array.init n (fun _ -> Icoe_util.Rng.uniform rng Topopt.rho_min 1.0)
          in
          let design () =
            let t = Topopt.create ~penal ~nx ~ny () in
            Array.blit rho 0 t.Topopt.rho 0 n;
            t
          in
          let t = design () and o = design () in
          let applies_match u =
            let y = Array.make n 0.0 and y' = Array.make n 0.0 in
            Topopt.apply (Topopt.stencil t) u y;
            Ref_topopt.apply o u y';
            bits y = bits y'
          in
          let x, it = Topopt.solve_state t
          and x', it' = Ref_topopt.solve_state o in
          let ht = Topopt.optimize ~iters:40 t
          and ho = Ref_topopt.optimize ~iters:40 o in
          let u = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
          applies_match u
          && applies_match (Array.make n (-0.0))
          && bits x = bits x' && it = it'
          && bits ht = bits ho
          && bits t.Topopt.rho = bits o.Topopt.rho
          && t.Topopt.cg_iters_total = o.Topopt.cg_iters_total)
        topopt_grids)

(* the solve's bail-outs against [Ref_cg]'s: a density below zero at
   an odd exponent gives negative links, and p.Ap turns negative at
   the fourth iteration; a NaN density poisons p.Ap at the first. Both
   solves must stop at the same iteration with the same x *)
let test_topopt_cg_bailouts_match_oracle () =
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (name, rho_of) ->
      let design () =
        let t = Topopt.create ~penal:3.0 ~nx:7 ~ny:5 () in
        Array.iteri (fun k _ -> t.Topopt.rho.(k) <- rho_of k) t.Topopt.rho;
        t
      in
      let x, it = Topopt.solve_state (design ())
      and x', it' = Ref_topopt.solve_state (design ()) in
      Alcotest.(check int) (name ^ ": iterations") it' it;
      Alcotest.(check bool) (name ^ ": x") true (bits x = bits x'))
    [
      ("negative density", fun k -> if k = 17 then -0.6 else 0.5);
      ("nan density", fun k -> if k = 17 then Float.nan else 0.5);
    ]

(* [Topopt.oc_update] settles a cell at a move limit without the power
   when q = sens/lam is past a per-cell threshold; against the oracle's
   full expression on designs with cells at exactly rho_min, 0.95 and
   1.0, and cells whose r - 0.05 falls under rho_min or r + 0.05 passes
   1, at exponents 1-5. Each design is updated under its state solve's
   temperature field, then under a random one, then (from the same
   start) at a volume fraction chosen so that the bisection closes in
   on one cell's threshold: the volume of the update at lam = sens/T
   for a cell and one of its thresholds T. The property prints how many
   bisection evaluations fell within 1e-6 (relative) of a threshold. *)
let prop_topopt_oc_matches_oracle =
  QCheck.Test.make ~name:"oc_update matches the oracle" ~count:1
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let uniform = Icoe_util.Rng.uniform rng and rho_min = Topopt.rho_min in
      let bits a = Array.map Int64.bits_of_float a in
      let upper r = (Float.min (r +. 0.05) 1.0 /. r) ** (1.0 /. 0.3)
      and lower r = (Float.max (r -. 0.05) rho_min /. r) ** (1.0 /. 0.3) in
      let evals = ref 0 and near = ref 0 in
      let on_eval r q =
        incr evals;
        let close a = Float.abs (q -. a) <= 1e-6 *. a in
        if close (upper r) || close (lower r) then incr near
      in
      let case (nx, ny) =
        let n = nx * ny in
        let penal = uniform 1.0 5.0 in
        let rho =
          Array.init n (fun _ ->
              match Icoe_util.Rng.int rng 6 with
              | 0 -> rho_min
              | 1 -> 1.0
              | 2 -> 0.95
              | 3 -> uniform rho_min (rho_min +. 0.05)
              | 4 -> uniform 0.95 1.0
              | _ -> uniform rho_min 1.0)
        in
        let design ?volfrac () =
          let t = Topopt.create ?volfrac ~penal ~nx ~ny () in
          Array.blit rho 0 t.Topopt.rho 0 n;
          t
        in
        let same t o u =
          Topopt.oc_update t u;
          Ref_topopt.oc_update ~on_eval o u;
          bits t.Topopt.rho = bits o.Topopt.rho
          && Int64.equal
               (Int64.bits_of_float t.Topopt.compliance)
               (Int64.bits_of_float o.Topopt.compliance)
        in
        let t = design () and o = design () in
        let u = fst (Topopt.solve_state t) in
        let pinned =
          let sens = Ref_topopt.sensitivities o u in
          let k = Icoe_util.Rng.int rng n in
          let thr = if Icoe_util.Rng.int rng 2 = 0 then upper else lower in
          let lam = sens.(k) /. thr rho.(k) in
          if not (lam > 0.0) then []
          else begin
            let vol = ref 0.0 in
            Array.iteri
              (fun j s -> vol := !vol +. Ref_topopt.new_density rho.(j) (s /. lam))
              sens;
            let volfrac = !vol /. float_of_int n in
            [ (design ~volfrac (), design ~volfrac ()) ]
          end
        in
        same t o u
        && same t o (Array.init n (fun _ -> uniform 0.0 10.0))
        && List.for_all (fun (t, o) -> same t o u) pinned
      in
      let ok =
        List.for_all
          (fun grid -> List.for_all (fun _ -> case grid) (List.init 10 Fun.id))
          topopt_grids
      in
      Fmt.pr "oc_update: %d of %d bisection evaluations within 1e-6 of a \
              threshold@."
        !near !evals;
      ok)

let test_texture_cache_story () =
  (* Sec 4.7: texture path matters on the EA system (P100), not on Volta *)
  let cells = 1_000_000 in
  let p100_tex = Topopt.apply_time ~cells Hwsim.Device.p100 ~textures:true in
  let p100_plain = Topopt.apply_time ~cells Hwsim.Device.p100 ~textures:false in
  let v100_tex = Topopt.apply_time ~cells Hwsim.Device.v100 ~textures:true in
  let v100_plain = Topopt.apply_time ~cells Hwsim.Device.v100 ~textures:false in
  Alcotest.(check bool) "texture wins big on P100" true
    (p100_tex < 0.7 *. p100_plain);
  Alcotest.(check bool) "texture irrelevant on V100" true
    (Float.abs (v100_tex -. v100_plain) /. v100_plain < 0.05)

(* --- paradyn (Fig 6) --- *)

let paradyn_inputs n =
  let r = Icoe_util.Rng.create 7 in
  List.map
    (fun a -> (a, Array.init n (fun _ -> Icoe_util.Rng.uniform r (-1.0) 1.0)))
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

let test_passes_preserve_semantics () =
  let inputs = paradyn_inputs 500 in
  let base = Paradyn.Ir.paradyn_kernel in
  let slnsp = Paradyn.Passes.slnsp base in
  let dse = Paradyn.Passes.dse slnsp in
  let env0, _ = Paradyn.Interp.run base ~inputs in
  List.iter
    (fun p ->
      let env, _ = Paradyn.Interp.run p ~inputs in
      List.iter
        (fun out ->
          Alcotest.(check bool)
            (out ^ " identical")
            true
            (Icoe_util.Stats.max_abs_diff (Hashtbl.find env out)
               (Hashtbl.find env0 out)
            = 0.0))
        base.Paradyn.Ir.outputs)
    [ slnsp; dse ]

let test_fig6_shape () =
  let inputs = paradyn_inputs 100 in
  let base = Paradyn.Ir.paradyn_kernel in
  let slnsp = Paradyn.Passes.slnsp base in
  let dse = Paradyn.Passes.dse slnsp in
  let _, c0 = Paradyn.Interp.run base ~inputs in
  let _, c1 = Paradyn.Interp.run slnsp ~inputs in
  let _, c2 = Paradyn.Interp.run dse ~inputs in
  (* SLNSP halves global loads *)
  Alcotest.(check bool)
    (Fmt.str "loads %d -> %d" c0.Paradyn.Interp.loads c1.Paradyn.Interp.loads)
    true
    (c1.Paradyn.Interp.loads * 2 <= c0.Paradyn.Interp.loads);
  (* one launch after fusion *)
  Alcotest.(check int) "fused to one launch" 1 c1.Paradyn.Interp.launches;
  (* time: ~2x from SLNSP, then ~20% more from DSE *)
  let n = 4_000_000 in
  let t0 = Paradyn.Interp.gpu_time ~n c0 in
  let t1 = Paradyn.Interp.gpu_time ~n c1 in
  let t2 = Paradyn.Interp.gpu_time ~n c2 in
  let s1 = t0 /. t1 and s2 = t1 /. t2 in
  Alcotest.(check bool) (Fmt.str "SLNSP speedup %.2f in 1.5-2.2" s1) true
    (s1 > 1.5 && s1 < 2.2);
  Alcotest.(check bool) (Fmt.str "DSE bonus %.2f in 1.1-1.35" s2) true
    (s2 > 1.1 && s2 < 1.35);
  (* DSE removes stores *)
  Alcotest.(check bool) "fewer stores after DSE" true
    (c2.Paradyn.Interp.stores < c1.Paradyn.Interp.stores)

let test_dse_keeps_outputs () =
  let dse = Paradyn.Passes.dse (Paradyn.Passes.slnsp Paradyn.Ir.paradyn_kernel) in
  (* every output still has a store *)
  let stored =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun st -> Paradyn.Ir.stmt_writes st)
          l.Paradyn.Ir.body)
      dse.Paradyn.Ir.loops
  in
  List.iter
    (fun out ->
      Alcotest.(check bool) (out ^ " still stored") true (List.mem out stored))
    dse.Paradyn.Ir.outputs

let test_cpu_fusion_regression () =
  (* Sec 4.8's dual lesson: on the GPU, fusion wins (launch overhead +
     traffic); on the CPU, hand-fused source LOSES vs the original small
     loops — which is why the SLNSP compiler path was needed *)
  let inputs = paradyn_inputs 100 in
  let base = Paradyn.Ir.paradyn_kernel in
  let fused = Paradyn.Passes.fuse base in
  let _, c_base = Paradyn.Interp.run base ~inputs in
  let _, c_fused = Paradyn.Interp.run fused ~inputs in
  let n = 4_000_000 in
  (* GPU: fused faster *)
  Alcotest.(check bool) "gpu: fused wins" true
    (Paradyn.Interp.gpu_time ~n c_fused < Paradyn.Interp.gpu_time ~n c_base);
  (* CPU: fused source slower *)
  let t_cpu_base = Paradyn.Interp.cpu_time ~n ~fused_source:false c_base in
  let t_cpu_fused = Paradyn.Interp.cpu_time ~n ~fused_source:true c_fused in
  Alcotest.(check bool) "cpu: small loops win" true (t_cpu_base < t_cpu_fused);
  (* SLNSP (compiler-internal) keeps the unfused source: CPU unharmed,
     and its GPU time beats the baseline *)
  let slnsp = Paradyn.Passes.dse (Paradyn.Passes.slnsp base) in
  let _, c_slnsp = Paradyn.Interp.run slnsp ~inputs in
  Alcotest.(check bool) "slnsp gpu beats baseline" true
    (Paradyn.Interp.gpu_time ~n c_slnsp < Paradyn.Interp.gpu_time ~n c_base)

let prop_scheduler_conservation =
  QCheck.Test.make ~name:"every policy completes every job" ~count:20
    QCheck.(pair (int_range 1 3000) (int_range 1 4))
    (fun (seed, pol_idx) ->
      let r = Icoe_util.Rng.create seed in
      let jobs = Scheduler.batch_workload ~rng:r ~n:80 () in
      let pol =
        match pol_idx with
        | 1 -> Scheduler.Fcfs
        | 2 -> Scheduler.Sjf
        | 3 -> Scheduler.Fcfs_backfill
        | _ -> Scheduler.Sjf_quota 0.5
      in
      let m = Scheduler.simulate ~gpus:10 pol jobs in
      m.Scheduler.completed = 80)

(* staggered arrivals with mixed widths: the adversarial input for
   backfill (heads block mid-stream, not just at t=0) *)
let staggered_jobs r n =
  List.init n (fun id ->
      let duration = exp (Icoe_util.Rng.normal r ~mu:0.8 ~sigma:0.9) in
      let gpus = 1 + Icoe_util.Rng.int r 8 in
      let arrival = Icoe_util.Rng.float r *. 30.0 in
      { Scheduler.id; arrival; duration; gpus })

let prop_backfill_never_delays_head =
  (* [~check:true] recomputes the head's shadow with each candidate
     hypothetically running and raises if it ever moved later *)
  QCheck.Test.make ~name:"backfill never delays the head past its shadow"
    ~count:40
    QCheck.(pair (int_range 1 10_000) (int_range 9 16))
    (fun (seed, gpus) ->
      let r = Icoe_util.Rng.create seed in
      let jobs = staggered_jobs r 70 in
      let m, _ =
        Scheduler.simulate_schedule ~gpus ~check:true Scheduler.Fcfs_backfill
          jobs
      in
      m.Scheduler.completed = 70)

let prop_quota_share_bounded =
  (* reconstruct from the schedule: whenever a long job is started while
     some short job is waiting, the long jobs then running stay within
     the quota (one oversized long may run alone — the no-starvation
     escape hatch) *)
  QCheck.Test.make ~name:"sjf+quota bounds the long-job share" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = Icoe_util.Rng.create seed in
      let jobs = staggered_jobs r 60 in
      let gpus = 12 and q = 0.5 in
      let _, sched =
        Scheduler.simulate_schedule ~gpus (Scheduler.Sjf_quota q) jobs
      in
      let med =
        Icoe_util.Stats.median
          (Array.of_list (List.map (fun j -> j.Scheduler.duration) jobs))
      in
      let by_id = Hashtbl.create 64 in
      List.iter (fun j -> Hashtbl.replace by_id j.Scheduler.id j) jobs;
      let entries =
        List.map (fun (id, s, f) -> (Hashtbl.find by_id id, s, f)) sched
      in
      List.for_all
        (fun (j, s, _) ->
          j.Scheduler.duration <= med
          ||
          let shorts_waiting =
            List.exists
              (fun (k, sk, _) ->
                k.Scheduler.duration <= med && k.Scheduler.arrival <= s && sk > s)
              entries
          in
          (not shorts_waiting)
          ||
          let running_longs =
            List.filter
              (fun (k, sk, fk) -> k.Scheduler.duration > med && sk <= s && fk > s)
              entries
          in
          let usage =
            List.fold_left (fun a (k, _, _) -> a + k.Scheduler.gpus) 0
              running_longs
          in
          List.length running_longs <= 1
          || float_of_int usage <= (q *. float_of_int gpus) +. 1e-9)
        entries)

(* --- autotune --- *)

let comm_str c = Hwsim.Split.comm_name c

(* A deterministic synthetic objective: one splitmix64 draw keyed on the
   candidate's bits gives an arbitrary-looking but exactly reproducible
   landscape, so search properties can be checked without the cost of
   the real step models. *)
let synth_obj seed (c : Autotune.candidate) =
  let comm_bit =
    match c.Autotune.comm with Hwsim.Split.Dedicated -> 0 | Inline -> 1
  in
  let key =
    seed
    lxor Int64.to_int (Int64.bits_of_float c.Autotune.split)
    lxor (comm_bit * 0x9E3779B9)
  in
  1.0 +. Icoe_util.Rng.float (Icoe_util.Rng.create key)

let test_autotune_exhaustive_minimum () =
  (* a quasi-convex landscape whose optimum sits on a lattice point *)
  let obj (c : Autotune.candidate) =
    Float.abs (c.Autotune.split -. 0.35)
    +.
    match c.Autotune.comm with
    | Hwsim.Split.Dedicated -> 0.01
    | Inline -> 0.0
  in
  let r = Autotune.exhaustive obj in
  Alcotest.(check (float 0.0)) "optimal split" 0.35
    r.Autotune.best.Autotune.cand.Autotune.split;
  Alcotest.(check string) "optimal placement" "inline"
    (comm_str r.Autotune.best.Autotune.cand.Autotune.comm);
  Alcotest.(check int) "whole space priced (memoized)" r.Autotune.space
    r.Autotune.evaluations;
  Alcotest.(check int) "space = 21 points x 2 placements" 42 r.Autotune.space;
  Alcotest.(check (float 0.0)) "default is all-GPU" 1.0
    r.Autotune.default.Autotune.cand.Autotune.split;
  Alcotest.(check string) "default is dedicated" "dedicated"
    (comm_str r.Autotune.default.Autotune.cand.Autotune.comm)

let test_autotune_ties_keep_default () =
  (* a flat landscape: nothing strictly beats the paper default, so the
     tuner must return it unchanged *)
  let r = Autotune.exhaustive (fun _ -> 7.0) in
  Alcotest.(check (float 0.0)) "split stays 1.0" 1.0
    r.Autotune.best.Autotune.cand.Autotune.split;
  Alcotest.(check string) "comm stays dedicated" "dedicated"
    (comm_str r.Autotune.best.Autotune.cand.Autotune.comm);
  Alcotest.(check (float 0.0)) "makespan reported" 7.0
    r.Autotune.best.Autotune.makespan

let test_autotune_rejects_bad_input () =
  let raises f =
    match f () with
    | (_ : Autotune.result) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty lattice" true
    (raises (fun () -> Autotune.exhaustive ~splits:[||] (fun _ -> 1.0)));
  Alcotest.(check bool) "empty placement list" true
    (raises (fun () -> Autotune.exhaustive ~comms:[] (fun _ -> 1.0)));
  Alcotest.(check bool) "out-of-range split" true
    (raises (fun () -> Autotune.exhaustive ~splits:[| 1.5 |] (fun _ -> 1.0)));
  Alcotest.(check bool) "NaN objective" true
    (raises (fun () -> Autotune.exhaustive (fun _ -> Float.nan)));
  Alcotest.(check bool) "negative budget" true
    (raises (fun () -> Autotune.anneal ~iters:(-1) (fun _ -> 1.0)))

let prop_autotune_modes_agree =
  (* when the whole space fits in the budget, annealing falls back to
     the exhaustive sweep and the two modes agree exactly *)
  QCheck.Test.make ~count:60
    ~name:"autotune: annealing with budget >= space equals exhaustive"
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(1 -- 6) (int_bound 10)))
    (fun (seed, idxs) ->
      let splits =
        Array.of_list (List.map (fun i -> float_of_int i /. 10.0) idxs)
      in
      let obj = synth_obj seed in
      let ex = Autotune.exhaustive ~splits obj in
      let an = Autotune.anneal ~seed ~iters:100 ~splits obj in
      Float.equal ex.Autotune.best.Autotune.makespan
        an.Autotune.best.Autotune.makespan
      && Float.equal ex.Autotune.best.Autotune.cand.Autotune.split
           an.Autotune.best.Autotune.cand.Autotune.split
      && String.equal
           (comm_str ex.Autotune.best.Autotune.cand.Autotune.comm)
           (comm_str an.Autotune.best.Autotune.cand.Autotune.comm)
      && ex.Autotune.evaluations = an.Autotune.evaluations
      && Astring.String.is_suffix ~affix:"exhaustive" an.Autotune.mode)

let prop_autotune_never_worse_and_deterministic =
  (* the real annealing path (space > budget): the tuned makespan never
     loses to the paper default, and a fixed seed pins the whole result *)
  QCheck.Test.make ~count:40
    ~name:"autotune: anneal <= default and deterministic under a seed"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let splits = Hwsim.Split.lattice ~steps:60 () in
      let obj = synth_obj seed in
      let r1 = Autotune.anneal ~seed ~iters:40 ~splits obj in
      let r2 = Autotune.anneal ~seed ~iters:40 ~splits obj in
      r1.Autotune.best.Autotune.makespan
      <= r1.Autotune.default.Autotune.makespan
      && Float.equal r1.Autotune.default.Autotune.makespan
           (obj Autotune.default_candidate)
      && Float.equal r1.Autotune.best.Autotune.makespan
           r2.Autotune.best.Autotune.makespan
      && Float.equal r1.Autotune.best.Autotune.cand.Autotune.split
           r2.Autotune.best.Autotune.cand.Autotune.split
      && String.equal
           (comm_str r1.Autotune.best.Autotune.cand.Autotune.comm)
           (comm_str r2.Autotune.best.Autotune.cand.Autotune.comm)
      && r1.Autotune.evaluations = r2.Autotune.evaluations
      && r1.Autotune.evaluations <= r1.Autotune.space)

let prop_autotune_exhaustive_bounds_anneal =
  (* exhaustive search is the ground truth: annealing on the same
     lattice can match it but never beat it, and never loses to the
     default either *)
  QCheck.Test.make ~count:40
    ~name:"autotune: exhaustive is a lower bound for annealing"
    QCheck.(pair (int_bound 100_000) (int_bound 50))
    (fun (seed, iters) ->
      let splits = Hwsim.Split.lattice ~steps:40 () in
      let obj = synth_obj seed in
      let ex = Autotune.exhaustive ~splits obj in
      let an = Autotune.anneal ~seed:(seed + 1) ~iters ~splits obj in
      ex.Autotune.best.Autotune.makespan
      <= an.Autotune.best.Autotune.makespan
      && an.Autotune.best.Autotune.makespan
         <= an.Autotune.default.Autotune.makespan)

let () =
  Alcotest.run "opt"
    [
      ( "scheduler",
        [
          Alcotest.test_case "all complete" `Quick test_batch_all_complete;
          Alcotest.test_case "sjf+quota utilization" `Quick test_sjf_quota_beats_fcfs_utilization;
          Alcotest.test_case "quota cost bounded" `Quick test_sjf_quota_bounds_starvation;
          Alcotest.test_case "throttling" `Quick test_throttling_conclusion;
          Alcotest.test_case "fcfs order" `Quick test_fcfs_order_respected;
          Alcotest.test_case "easy backfill" `Quick test_backfill_beats_fcfs;
          Alcotest.test_case "simultaneous finishes" `Quick
            test_backfill_simultaneous_finishes;
          Alcotest.test_case "spare capacity" `Quick
            test_backfill_spare_capacity;
          Alcotest.test_case "backfill = fcfs when impossible" `Quick
            test_backfill_agrees_with_fcfs_when_impossible;
          Alcotest.test_case "pinned schedules" `Quick test_pinned_schedules;
          QCheck_alcotest.to_alcotest prop_scheduler_conservation;
          QCheck_alcotest.to_alcotest prop_backfill_never_delays_head;
          QCheck_alcotest.to_alcotest prop_quota_share_bounded;
          QCheck_alcotest.to_alcotest prop_core_matches_list_oracle;
          QCheck_alcotest.to_alcotest prop_core_matches_oracle_overloaded;
          QCheck_alcotest.to_alcotest prop_core_matches_oracle_service_scale;
        ] );
      ( "topopt",
        [
          Alcotest.test_case "volume constraint" `Quick test_topopt_volume_constraint;
          Alcotest.test_case "compliance decreases" `Quick test_topopt_compliance_decreases;
          Alcotest.test_case "forms structure" `Quick test_topopt_forms_structure;
          Alcotest.test_case "texture cache" `Quick test_texture_cache_story;
          Alcotest.test_case "flat loops match the oracle" `Quick
            test_topopt_matches_oracle;
          QCheck_alcotest.to_alcotest prop_topopt_stencil_matches_oracle;
          Alcotest.test_case "cg bail-outs match the oracle" `Quick
            test_topopt_cg_bailouts_match_oracle;
          QCheck_alcotest.to_alcotest prop_topopt_oc_matches_oracle;
        ] );
      ( "paradyn",
        [
          Alcotest.test_case "semantics preserved" `Quick test_passes_preserve_semantics;
          Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
          Alcotest.test_case "dse keeps outputs" `Quick test_dse_keeps_outputs;
          Alcotest.test_case "cpu fusion regression" `Quick test_cpu_fusion_regression;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "exhaustive minimum" `Quick
            test_autotune_exhaustive_minimum;
          Alcotest.test_case "ties keep default" `Quick
            test_autotune_ties_keep_default;
          Alcotest.test_case "rejects bad input" `Quick
            test_autotune_rejects_bad_input;
          QCheck_alcotest.to_alcotest prop_autotune_modes_agree;
          QCheck_alcotest.to_alcotest prop_autotune_never_worse_and_deterministic;
          QCheck_alcotest.to_alcotest prop_autotune_exhaustive_bounds_anneal;
        ] );
    ]

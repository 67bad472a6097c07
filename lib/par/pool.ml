(* Domain pool with deterministic chunked scheduling. See pool.mli for
   the contract. The implementation favours being obviously correct over
   being clever: one mutex + two condition variables, an atomic counter
   to hand out chunks, and a generation number so reused workers never
   confuse two jobs. *)

type job = {
  run : int -> unit;  (* chunk index -> work *)
  nchunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  mutable completed : int;  (* chunks finished; guarded by the pool mutex *)
  mutable failed : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

type t = {
  requested : int;  (* domains requested, caller included *)
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t array;  (* [||] once shut down *)
  busy : bool Atomic.t;  (* a job is in flight: nested calls go serial *)
}

let size t = if Array.length t.workers = 0 then 1 else t.requested

(* Domain-local "currently executing a chunk" flag. Observable via
   [in_parallel_job] so layers with non-thread-safe state (the metrics
   registry) can detect — and reject — use from inside worker chunks.
   Set on every execution path, including the serial fallback, so the
   contract is enforced identically whatever ICOE_DOMAINS says. *)
let in_job_key = Domain.DLS.new_key (fun () -> false)
let in_parallel_job () = Domain.DLS.get in_job_key

let with_in_job f =
  let prev = Domain.DLS.get in_job_key in
  Domain.DLS.set in_job_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_job_key prev) f

(** The [ICOE_DOMAINS] environment variable if set to a positive
    integer, else [Domain.recommended_domain_count ()]. [1] means
    "exactly serial". *)
let default_domains () =
  match Sys.getenv_opt "ICOE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 128
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_chunk n = max 16 ((n + 63) / 64)

(* Run one claimed chunk and account for its completion. Exceptions are
   kept (first one wins) and re-raised by the submitter. *)
let run_chunk t job k =
  (if not job.failed then
     try job.run k
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.m;
       if job.error = None then job.error <- Some (e, bt);
       job.failed <- true;
       Mutex.unlock t.m);
  Mutex.lock t.m;
  job.completed <- job.completed + 1;
  if job.completed = job.nchunks then Condition.broadcast t.work_done;
  Mutex.unlock t.m

let claim_loop t job =
  let continue = ref true in
  while !continue do
    let k = Atomic.fetch_and_add job.next 1 in
    if k >= job.nchunks then continue := false else run_chunk t job k
  done

let worker t () =
  let seen = ref 0 in
  Mutex.lock t.m;
  while not t.stop do
    if t.generation = !seen then Condition.wait t.work_ready t.m
    else begin
      seen := t.generation;
      match t.job with
      | None -> ()
      | Some job ->
          Mutex.unlock t.m;
          with_in_job (fun () -> claim_loop t job);
          Mutex.lock t.m
    end
  done;
  Mutex.unlock t.m

let create ?domains () =
  let requested =
    max 1 (min 128 (match domains with Some d -> d | None -> default_domains ()))
  in
  let t =
    {
      requested;
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      workers = [||];
      busy = Atomic.make false;
    }
  in
  if requested > 1 then
    t.workers <- Array.init (requested - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  let ws = t.workers in
  if Array.length ws > 0 then begin
    t.workers <- [||];
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    Array.iter Domain.join ws
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let global = ref None

let get () =
  match !global with
  | Some t -> t
  | None ->
      let t = create () in
      global := Some t;
      at_exit (fun () -> shutdown t);
      t

(* Execute [run] for every chunk index in [0, nchunks). Serial (ascending
   order) when the pool has one domain, when there is a single chunk, or
   when called from inside a running job (nesting). Chunk layout is the
   caller's; only the execution strategy varies, so results never do. *)
let run_chunked t ~nchunks run =
  if nchunks > 0 then
    if size t = 1 || nchunks = 1 || not (Atomic.compare_and_set t.busy false true)
    then
      with_in_job (fun () ->
          for k = 0 to nchunks - 1 do
            run k
          done)
    else begin
      let job =
        {
          run;
          nchunks;
          next = Atomic.make 0;
          completed = 0;
          failed = false;
          error = None;
        }
      in
      Mutex.lock t.m;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.m;
      with_in_job (fun () -> claim_loop t job);
      Mutex.lock t.m;
      while job.completed < job.nchunks do
        Condition.wait t.work_done t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      Atomic.set t.busy false;
      match job.error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

let chunk_layout ?chunk ~lo ~hi () =
  let n = hi - lo in
  let csize =
    match chunk with Some c when c >= 1 -> c | _ -> default_chunk n
  in
  (csize, if n <= 0 then 0 else (n + csize - 1) / csize)

let num_chunks ?chunk ~lo ~hi () = snd (chunk_layout ?chunk ~lo ~hi ())

let parallel_for_chunks ?pool ?chunk ~lo ~hi f =
  let t = match pool with Some p -> p | None -> get () in
  let csize, nchunks = chunk_layout ?chunk ~lo ~hi () in
  run_chunked t ~nchunks (fun k ->
      let clo = lo + (k * csize) in
      f clo (min hi (clo + csize)))

let parallel_for_chunks_i ?pool ?chunk ~lo ~hi f =
  let t = match pool with Some p -> p | None -> get () in
  let csize, nchunks = chunk_layout ?chunk ~lo ~hi () in
  run_chunked t ~nchunks (fun k ->
      let clo = lo + (k * csize) in
      f k clo (min hi (clo + csize)))

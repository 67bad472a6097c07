(** Unified structured event log (JSONL flight recorder).

    One flat schema over every observability source in the repo: Trace
    spans, Metrics snapshot deltas, fault injections, and service-layer
    job lifecycle. Each event is a single JSON object on its own line:

    {v
    {"seq": N, "t_s": X, "kind": "...", "source": "...", ...fields}
    v}

    [seq] is a monotonically increasing per-process counter (so a
    merged/sorted log can always be replayed in emission order), [t_s]
    the simulated-clock timestamp when the emitter has one. The recorder
    is off by default — [emit] is a cheap no-op until a sink is
    installed, either explicitly ({!to_file}, {!memory})
    or via the [ICOE_EVENTS=path] environment variable checked on first
    use. Events emitted from inside an {!Icoe_par.Pool} parallel job are
    silently dropped rather than racing on the shared channel. *)

type sink = { write : string -> unit; close : unit -> unit }

let current : sink option ref = ref None
let seq = ref 0
let env_checked = ref false

let close () =
  (match !current with Some s -> s.close () | None -> ());
  current := None

let set_sink write =
  close ();
  env_checked := true;
  current := Some { write; close = (fun () -> ()) }

let to_file path =
  close ();
  env_checked := true;
  let oc = open_out path in
  current :=
    Some
      {
        write = (fun line -> output_string oc line; output_char oc '\n');
        close = (fun () -> close_out oc);
      }

let memory () =
  let acc = ref [] in
  set_sink (fun line -> acc := line :: !acc);
  fun () -> List.rev !acc

let check_env () =
  if not !env_checked then begin
    env_checked := true;
    match Sys.getenv_opt "ICOE_EVENTS" with
    | Some path when path <> "" ->
        to_file path;
        at_exit close
    | _ -> ()
  end

let enabled () =
  check_env ();
  Option.is_some !current && not (Icoe_par.Pool.in_parallel_job ())

let reset_seq () = seq := 0

let emit ?t_s ~kind ~source fields =
  if enabled () then begin
    let sink = Option.get !current in
    let open Icoe_util.Json in
    let t_s =
      match t_s with Some t when Float.is_finite t -> [ ("t_s", Num t) ] | _ -> []
    in
    let head = ("seq", Num (float_of_int !seq)) :: t_s in
    incr seq;
    let line =
      to_string (Obj (head @ (("kind", Str kind) :: ("source", Str source) :: fields)))
    in
    (* a flat object renders on one line; drop the document's newline *)
    sink.write (String.sub line 0 (String.length line - 1))
  end

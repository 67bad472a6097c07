(** Unified structured event log (JSONL flight recorder).

    One flat schema over every observability source in the repo: Trace
    spans, Metrics snapshot deltas, fault injections, and service-layer
    job lifecycle. Each event is a single JSON object on its own line:

    {v
    {"seq":N,"t_s":X,"kind":"...","source":"...",...fields}
    v}

    [seq] is a monotonically increasing per-process counter (so a
    merged/sorted log can always be replayed in emission order), [t_s]
    the simulated-clock timestamp when the emitter has one. The recorder
    is off by default — [emit] is a cheap no-op until a sink is
    installed, either explicitly ({!to_file}, {!set_sink}, {!memory})
    or via the [ICOE_EVENTS=path] environment variable checked on first
    use. Events emitted from inside an {!Icoe_par.Pool} parallel job are
    silently dropped rather than racing on the shared channel. *)

type field =
  | S of string
  | F of float
  | I of int
  | B of bool

let field_json = function
  | S s -> Fmt.str "\"%s\"" (Icoe_util.Json.escape s)
  | F f -> Icoe_util.Json.number f
  | I i -> string_of_int i
  | B b -> if b then "true" else "false"

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
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Fmt.str "{\"seq\":%d" !seq);
    incr seq;
    (match t_s with
    | Some t when Float.is_finite t ->
        Buffer.add_string buf (Fmt.str ",\"t_s\":%.17g" t)
    | _ -> ());
    Buffer.add_string buf
      (Fmt.str ",\"kind\":\"%s\",\"source\":\"%s\"" (Icoe_util.Json.escape kind)
         (Icoe_util.Json.escape source));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Fmt.str ",\"%s\":%s" (Icoe_util.Json.escape k) (field_json v)))
      fields;
    Buffer.add_char buf '}';
    sink.write (Buffer.contents buf)
  end

(* Host-time measurement for the benchmark: one monotonic clock, spans
   that record the GC work done inside them, and per-call latency
   samples summarised as a median plus a tail percentile.

   Spans are recorded only by the traced run; the untraced run times a
   whole pass with two clock reads and nothing else. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(** [time f] is [f ()] and the host seconds it took. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* GC work in the calling domain plus any domain joined so far (OCaml
   5.1 [Gc.quick_stat]); live pool workers are not included. Minor words
   come from [Gc.minor_words], which also counts the words allocated
   since the last minor collection. *)
type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since g0 =
  let g1 = gc_now () in
  {
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    major_collections = g1.major_collections - g0.major_collections;
  }

type t = {
  name : string;
  parent : string option;  (** the enclosing span, if any *)
  start_ns : int64;
  stop_ns : int64;
  gc : gc;  (** GC work between start and stop *)
}

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let recorded : t list ref = ref []
let open_spans : string list ref = ref []

(** [record name f] runs [f ()] inside a span called [name], also when
    [f] raises. *)
let record name f =
  let parent = match !open_spans with p :: _ -> Some p | [] -> None in
  open_spans := name :: !open_spans;
  let g0 = gc_now () in
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = now_ns () in
      let gc = gc_since g0 in
      open_spans := List.tl !open_spans;
      recorded := { name; parent; start_ns; stop_ns; gc } :: !recorded)

(** Every span recorded so far, oldest first. *)
let all () = List.rev !recorded

let find name = List.find_opt (fun s -> s.name = name) !recorded

(** Seconds of span [name]; raises [Not_found] when it was never
    recorded. *)
let seconds_of name =
  match find name with Some s -> seconds s | None -> raise Not_found

(** The span table: one row per span with its total and self time (its
    duration minus the part its child spans cover), oldest first. *)
let report () =
  let spans = all () in
  let child_seconds name =
    List.fold_left
      (fun acc s -> if s.parent = Some name then acc +. seconds s else acc)
      0.0 spans
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-36s %-22s %12s %12s %12s\n" "span" "parent" "total s"
    "self s" "minor Mw";
  List.iter
    (fun s ->
      Printf.bprintf b "%-36s %-22s %12.6f %12.6f %12.3f\n" s.name
        (Option.value s.parent ~default:"-")
        (seconds s)
        (seconds s -. child_seconds s.name)
        (s.gc.minor_words /. 1e6))
    spans;
  Buffer.contents b

(* ---- per-call samples ---- *)

(** [sample ~n f] times [n] calls of [f] one by one; microseconds,
    sorted ascending. *)
let sample ~n f =
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let t0 = now_ns () in
    f ();
    a.(i) <- Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3
  done;
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile [p] (in percent) of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(** The highest whole percentile with at least ten samples above it:
    99 for 1000 samples, 90 for 100. *)
let tail_percentile n = 100 - ((1000 + n - 1) / n)

let median sorted = percentile sorted 50.0

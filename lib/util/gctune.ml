(* ICOE_GC_* environment knobs -> Gc.set. See gctune.mli. *)

type settings = {
  minor_heap_words : int option;
  space_overhead : int option;
}

let parse_positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | _ -> None

let of_env () =
  let knob name = Option.bind (Sys.getenv_opt name) parse_positive in
  {
    minor_heap_words = knob "ICOE_GC_MINOR_HEAP";
    space_overhead = knob "ICOE_GC_SPACE_OVERHEAD";
  }

let describe s =
  match (s.minor_heap_words, s.space_overhead) with
  | None, None -> "gc: defaults"
  | mh, so ->
      let part name = function
        | None -> []
        | Some v -> [ Fmt.str "%s=%d" name v ]
      in
      "gc: "
      ^ String.concat " "
          (part "minor_heap_words" mh @ part "space_overhead" so)

let apply s =
  if s.minor_heap_words <> None || s.space_overhead <> None then begin
    let g = Gc.get () in
    let g =
      match s.minor_heap_words with
      | Some w -> { g with Gc.minor_heap_size = w }
      | None -> g
    in
    let g =
      match s.space_overhead with
      | Some o -> { g with Gc.space_overhead = o }
      | None -> g
    in
    Gc.set g
  end

let apply_env () =
  let s = of_env () in
  apply s;
  s

(** Simulated-time accumulator with named phases.

    Experiments charge kernel and transfer times here; harnesses read back
    both the total and the per-phase breakdown (Figs. 2 and 8 are breakdown
    charts). *)

type t = {
  mutable total : float;
  phases : (string, float ref) Hashtbl.t;
  mutable order : string list; (* first-seen order, reversed *)
}

let create () = { total = 0.0; phases = Hashtbl.create 16; order = [] }

let reset t =
  t.total <- 0.0;
  Hashtbl.reset t.phases;
  t.order <- []

let reject_dt fn dt =
  invalid_arg (Printf.sprintf "Clock.%s: dt = %g is not >= 0" fn dt)

(** Charge [dt] seconds to [phase]'s breakdown without advancing the
    total. The stream scheduler uses this for overlapped work: each
    item's busy seconds stay attributed to its phase while the total
    only advances by the DAG's critical path (see {!advance}). *)
let attribute t ~phase dt =
  if not (dt >= 0.0) then reject_dt "attribute" dt;
  match Hashtbl.find_opt t.phases phase with
  | Some r -> r := !r +. dt
  | None ->
      Hashtbl.add t.phases phase (ref dt);
      t.order <- phase :: t.order

(** Advance the total by [dt] seconds without charging any phase. *)
let advance t dt =
  if not (dt >= 0.0) then reject_dt "advance" dt;
  t.total <- t.total +. dt

(** Charge [dt] seconds to [phase]. *)
let tick t ~phase dt =
  if not (dt >= 0.0) then reject_dt "tick" dt;
  t.total <- t.total +. dt;
  match Hashtbl.find_opt t.phases phase with
  | Some r -> r := !r +. dt
  | None ->
      Hashtbl.add t.phases phase (ref dt);
      t.order <- phase :: t.order

let total t = t.total

let phase t name =
  match Hashtbl.find_opt t.phases name with Some r -> !r | None -> 0.0

(** Phases in first-charged order with their accumulated seconds. *)
let breakdown t =
  List.rev_map (fun name -> (name, phase t name)) t.order

(** Critical-path blame over a scheduled stream/dependency DAG.

    {!Hwsim.Sched} advances simulated time by the DAG critical path, so
    per-phase charge rollups no longer say what the makespan is waiting
    on: a phase can charge many seconds and still be fully hidden under
    another stream. [Prof] answers the attribution question the paper's
    optimization loop runs on — which items the makespan actually ran
    through (the critical path), how much each phase/stream is
    responsible for (blame, summing exactly to the makespan), how much
    room every off-path item has (slack), and what a phase is worth
    ("zero phase X → makespan shrinks by Y").

    The schedule model is [Sched.run]'s own ({!forward}): items are
    listed in enqueue order and may only depend on earlier items. With
    [overlap = true] an item starts at the max of its stream's ready
    time and its deps' finishes; with [overlap = false] items run
    back-to-back in enqueue order, so the critical path is every item
    and per-phase blame degrades bit-identically to the serial charge
    breakdown. *)

type item = {
  idx : int;  (** position in enqueue order; must equal the array index *)
  stream : string;
  phase : string;
  device : string;
  dur : float;  (** seconds; finite and nonnegative *)
  deps : int list;  (** indices of earlier items *)
}

type blame = {
  key : string;  (** phase or stream name *)
  seconds : float;  (** makespan seconds attributed to [key] *)
  share : float;  (** [seconds /. makespan], 0 when the makespan is 0 *)
  on_path : int;  (** critical-path items with this key *)
}

type sensitivity = {
  s_key : string;  (** phase name *)
  makespan_without : float;  (** makespan with every [s_key] item zeroed *)
  shrink_s : float;  (** [makespan - makespan_without], clamped >= 0 *)
}

type analysis = {
  overlap : bool;
  n_items : int;
  makespan : float;
  serial_s : float;  (** sum of all durations *)
  starts : float array;  (** per-item scheduled start *)
  finishes : float array;  (** per-item scheduled finish *)
  slack : float array;
      (** per item: how much later it could finish without growing the
          makespan; exactly 0 on every longest path, and 0 everywhere
          with overlap off *)
  critical : int list;
      (** item indices along the blamed path, in schedule order; their
          durations telescope to [makespan] *)
  phase_blame : blame list;  (** descending seconds; sums to [makespan] *)
  stream_blame : blame list;  (** descending seconds; sums to [makespan] *)
  phase_sensitivity : sensitivity list;  (** descending shrink *)
}

val forward : overlap:bool -> item array -> float array * float array * float
(** The one forward pass, which [Hwsim.Sched.run] schedules through:
    [(starts, finishes, makespan)] indexed by [idx]. Unvalidated. *)

val analyze : overlap:bool -> item array -> analysis
(** Recompute the schedule and derive path/blame/slack/sensitivity.
    Raises [Invalid_argument] on malformed input ([idx] mismatch,
    negative or non-finite duration, forward dep). *)

val what_if_zero : analysis -> item array -> (item -> bool) -> float
(** [what_if_zero a items pred] is the makespan shrink obtained by
    zeroing the duration of every item satisfying [pred]. *)

val blame_total : analysis -> float
(** Sum of [phase_blame] seconds (equals [makespan] up to float
    regrouping; exact along the path). *)

val report_section : analysis -> string
(** Blame table + critical-path summary line + sensitivity lines, ready
    to append to a harness report. *)

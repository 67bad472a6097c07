(** Bounded retries with exponential backoff and deterministic jitter.

    Time is simulated: backoff delays are charged through a caller
    supplied [charge] callback (typically [Hwsim.Trace.charge] or
    [Hwsim.Clock.tick]) rather than slept.  Jitter comes from an
    explicit [Icoe_util.Rng.t], so a retried run replays exactly. *)

type policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_backoff_s : float;  (** delay before the second attempt *)
  multiplier : float;  (** geometric growth of the delay *)
  jitter : float;  (** +/- fraction of the delay, in [0, 1) *)
}

val default_policy : policy
(** 4 attempts, 0.5 s base, x2 growth, 25 % jitter. *)

val backoff_s : policy -> rng:Icoe_util.Rng.t -> attempt:int -> float
(** Delay charged before retry number [attempt] (1 = first retry).
    Deterministic given the rng state. *)

type outcome = {
  attempts : int;  (** tries actually made *)
  backoff_total_s : float;  (** simulated seconds spent backing off *)
  gave_up : bool;  (** all attempts failed *)
}

val run :
  rng:Icoe_util.Rng.t ->
  charge:(float -> unit) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result * outcome
(** Run [f ~attempt:1], retrying on [Error] after charging the backoff
    delay, until success or {!default_policy}'s [max_attempts] is
    exhausted (giving-up
    semantics: the last [Error] is returned with [gave_up = true]).
    Updates the [fault_retries_total] / [fault_giveups_total] counters
    and the [fault_backoff_seconds] histogram. *)

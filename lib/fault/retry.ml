module Rng = Icoe_util.Rng
module Metrics = Icoe_obs.Metrics

type policy = {
  max_attempts : int;
  base_backoff_s : float;
  multiplier : float;
  jitter : float;
}

let default_policy =
  { max_attempts = 4; base_backoff_s = 0.5; multiplier = 2.0; jitter = 0.25 }

type outcome = {
  attempts : int;
  backoff_total_s : float;
  gave_up : bool;
}

let m_retries =
  Metrics.counter ~help:"Retries performed after a failed attempt"
    "fault_retries_total"

let m_giveups =
  Metrics.counter ~help:"Operations abandoned after exhausting retries"
    "fault_giveups_total"

let m_backoff =
  Metrics.histogram ~help:"Simulated seconds spent in retry backoff"
    "fault_backoff_seconds"

let backoff_s p ~rng ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff_s: attempt must be >= 1";
  let base = p.base_backoff_s *. (p.multiplier ** float_of_int (attempt - 1)) in
  let j = p.jitter *. Rng.uniform rng (-1.0) 1.0 in
  Float.max 0.0 (base *. (1.0 +. j))

let run ~rng ~charge f =
  let policy = default_policy in
  let backoff_total = ref 0.0 in
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok ->
        ( ok,
          { attempts = attempt; backoff_total_s = !backoff_total;
            gave_up = false } )
    | Error _ as err when attempt >= policy.max_attempts ->
        Metrics.inc m_giveups;
        ( err,
          { attempts = attempt; backoff_total_s = !backoff_total;
            gave_up = true } )
    | Error _ ->
        let delay = backoff_s policy ~rng ~attempt in
        Metrics.inc m_retries;
        Metrics.observe m_backoff delay;
        charge delay;
        backoff_total := !backoff_total +. delay;
        go (attempt + 1)
  in
  go 1

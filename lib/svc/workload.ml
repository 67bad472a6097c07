(* Multi-tenant job-stream generation: who asks the machine for what,
   and when. A job class names a harness-registry workload and knows how
   to price itself on an allocation; the generator draws a stream of
   submissions with Zipf-skewed class popularity, mixed allocation
   sizes, and Poisson or bursty (two-state Markov-modulated Poisson)
   arrivals. Everything is driven by one explicit RNG, so a seed fully
   determines the stream. *)

type job_class = {
  name : string;
  sizes : int array;
  service : nodes:int -> float;
}

type job = { id : int; arrival : float; klass : int; nodes : int }

type arrivals =
  | Poisson of float
  | Bursty of {
      rate_hi : float;
      rate_lo : float;
      mean_hi_s : float;
      mean_lo_s : float;
    }

let zipf ~s n =
  if n <= 0 then invalid_arg "Workload.zipf: n must be positive";
  Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s))

(* Exact expectation of one job's node-seconds demand: Zipf over classes,
   uniform over each class's candidate sizes, service from the class's
   cost model. No sampling, so capacity is a closed-form anchor for the
   saturation sweep. *)
let mean_node_seconds ~classes ~zipf_s =
  let w = zipf ~s:zipf_s (Array.length classes) in
  let total_w = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.iteri
    (fun i c ->
      let per_class =
        Array.fold_left
          (fun a nodes -> a +. (float_of_int nodes *. c.service ~nodes))
          0.0 c.sizes
        /. float_of_int (Array.length c.sizes)
      in
      acc := !acc +. (w.(i) /. total_w *. per_class))
    classes;
  !acc

let capacity ~classes ~zipf_s ~nodes =
  float_of_int nodes /. mean_node_seconds ~classes ~zipf_s

let offered_load ~classes ~zipf_s ~rate ~nodes =
  rate *. mean_node_seconds ~classes ~zipf_s /. float_of_int nodes

let generate ~(rng : Icoe_util.Rng.t) ~classes ?(zipf_s = 1.1) ~arrivals
    ~horizon () =
  if Array.length classes = 0 then
    invalid_arg "Workload.generate: empty class catalog";
  let weights = zipf ~s:zipf_s (Array.length classes) in
  let draw id t =
    let klass = Icoe_util.Rng.categorical rng weights in
    let sizes = classes.(klass).sizes in
    let nodes = sizes.(Icoe_util.Rng.int rng (Array.length sizes)) in
    { id; arrival = t; klass; nodes }
  in
  match arrivals with
  | Poisson rate ->
      if rate <= 0.0 then invalid_arg "Workload.generate: rate must be positive";
      let rec go t id acc =
        let t = t +. Icoe_util.Rng.exponential rng ~rate in
        if t > horizon then List.rev acc else go t (id + 1) (draw id t :: acc)
      in
      go 0.0 0 []
  | Bursty { rate_hi; rate_lo; mean_hi_s; mean_lo_s } ->
      if rate_hi <= 0.0 || rate_lo < 0.0 then
        invalid_arg "Workload.generate: bursty rates must be sensible";
      if mean_hi_s <= 0.0 || mean_lo_s <= 0.0 then
        invalid_arg "Workload.generate: dwell times must be positive";
      (* two-state MMPP: exponential dwell in each state; the Poisson
         clock restarts at each switch (memoryless, so this is exact) *)
      let rec phase t id acc hi =
        if t > horizon then List.rev acc
        else
          let dwell_mean = if hi then mean_hi_s else mean_lo_s in
          let t_end =
            t +. Icoe_util.Rng.exponential rng ~rate:(1.0 /. dwell_mean)
          in
          let rate = if hi then rate_hi else rate_lo in
          let rec arrive t id acc =
            if rate <= 0.0 then (id, acc)
            else
              let t = t +. Icoe_util.Rng.exponential rng ~rate in
              if t > t_end || t > horizon then (id, acc)
              else arrive t (id + 1) (draw id t :: acc)
          in
          let id, acc = arrive t id acc in
          phase t_end id acc (not hi)
      in
      phase 0.0 0 [] true

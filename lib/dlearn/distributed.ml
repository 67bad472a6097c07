(** Distributed-training algorithms (Sec 4.5): synchronous SGD, ASGD with
    a parameter server and gradient staleness, and the team's K-step
    averaging (KAVG [34]). All three run the real optimization on real
    data; the simulated communication model prices their wall-clock so
    loss-versus-time comparisons are possible. *)

type dataset = { xs : float array array; labels : int array }

(** Synthetic classification task: Gaussian class clusters. *)
let make_task ~(rng : Icoe_util.Rng.t) ?(classes = 4) ?(dim = 12) ?(n = 600)
    ?(spread = 1.2) () =
  let centers =
    Array.init classes (fun _ ->
        Array.init dim (fun _ -> Icoe_util.Rng.uniform rng (-2.0) 2.0))
  in
  let xs = Array.make n [||] and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = Icoe_util.Rng.int rng classes in
    labels.(i) <- c;
    xs.(i) <-
      Array.init dim (fun d ->
          centers.(c).(d) +. (spread *. Icoe_util.Rng.gaussian rng))
  done;
  { xs; labels }

let shard ~learners (d : dataset) =
  Array.init learners (fun l ->
      let n = Array.length d.xs in
      let lo = n * l / learners and hi = n * (l + 1) / learners in
      {
        xs = Array.sub d.xs lo (hi - lo);
        labels = Array.sub d.labels lo (hi - lo);
      })

let minibatch ~(rng : Icoe_util.Rng.t) ~batch (d : dataset) =
  let n = Array.length d.xs in
  let idx = Array.init batch (fun _ -> Icoe_util.Rng.int rng n) in
  (Array.map (fun i -> d.xs.(i)) idx, Array.map (fun i -> d.labels.(i)) idx)

(* communication model: allreduce of p parameters across l learners over
   NVLink/IB, and a parameter-server round trip. Without a [topology]
   the flat dual-rail EDR expression is kept verbatim; with one, the
   recursive-doubling rounds are priced at the switch levels their pair
   distances cross under the given placement. *)
let allreduce_time ?topology ?(placement = Hwsim.Topology.Contiguous) ~params
    ~learners () =
  let bytes = 8.0 *. float_of_int params in
  match topology with
  | None ->
      let rounds = Float.ceil (Float.log2 (float_of_int (max 2 learners))) in
      rounds *. Hwsim.Link.transfer_time Hwsim.Link.ib_dual_edr ~bytes
  | Some topo ->
      Hwsim.Topology.allreduce_time topo ~nodes:learners ~placement ~bytes

let ps_roundtrip_time ~params =
  2.0 *. Hwsim.Link.transfer_time Hwsim.Link.ib_dual_edr ~bytes:(8.0 *. float_of_int params)

let device_compute_time_per_batch (device : Hwsim.Device.t) ~params ~batch =
  (* forward+backward ~ 6 flops per parameter per example, at 30% of the
     accelerator's peak *)
  6.0 *. float_of_int (params * batch)
  /. (device.Hwsim.Device.peak_gflops *. 1e9 *. 0.3)

let compute_time_per_batch ~params ~batch =
  device_compute_time_per_batch Hwsim.Device.v100 ~params ~batch

(** The same batch priced at the node's host sockets — the CPU side of
    a heterogeneous work split ({!Hwsim.Split}). *)
let host_compute_time_per_batch (node : Hwsim.Node.t) ~params ~batch =
  (* same flop volume at the node's host sockets — the CPU side of a
     heterogeneous work split *)
  6.0 *. float_of_int (params * batch)
  /. (float_of_int node.Hwsim.Node.cpu_sockets
     *. node.Hwsim.Node.cpu.Hwsim.Device.peak_gflops *. 1e9 *. 0.3)

type run = {
  final_loss : float;
  final_accuracy : float;
  simulated_seconds : float;
  steps : int;
  overlap_efficiency : float;
      (** charged time over serial-sum time, in (0, 1]; 1.0 for the
          algorithms that don't overlap communication *)
}

(* --- overlapped KAVG round model --- *)

(** Parameter count of each MLP layer (weights + biases), input first. *)
let layer_params sizes =
  List.init
    (Array.length sizes - 1)
    (fun i -> (sizes.(i) * sizes.(i + 1)) + sizes.(i + 1))

type round_model = {
  serial_round_s : float;
  overlapped_round_s : float;
  round_s : float;
  round_efficiency : float;
  dag : Icoe_obs.Prof.item array;
}

(** Per-round cost model of KAVG with the weight-average allreduce
    bucketed per layer and overlapped under backprop: the first [k - 1]
    local steps plus the last step's forward pass run as one "gpu"
    item; the last step's backward pass is split per layer (output layer
    first, 2/3 of a step's compute overall); each layer's slice of the
    round's allreduce (proportional to its parameter share — the
    collective's log-depth rounds are already priced in the total, so
    bucketing adds no extra latency) goes on the "net" stream as soon as
    that layer's gradients exist. [serial_round_s] is the exact
    pre-scheduler round expression [k * compute + allreduce]. *)
let kavg_round_model ?overlap ?trace ?topology ?placement ?node
    ?(gpu_frac = 1.0) ?(comm = Hwsim.Split.Dedicated) ~learners ~k ~batch
    sizes =
  Hwsim.Split.validate gpu_frac;
  let lps = layer_params sizes in
  let params = List.fold_left ( + ) 0 lps in
  let compute =
    match Option.bind node (fun (n : Hwsim.Node.t) -> n.Hwsim.Node.gpu) with
    | Some device -> device_compute_time_per_batch device ~params ~batch
    | None -> compute_time_per_batch ~params ~batch
  in
  let host_compute =
    host_compute_time_per_batch
      (Option.value node ~default:Hwsim.Node.witherspoon)
      ~params ~batch
  in
  let ar = allreduce_time ?topology ?placement ~params ~learners () in
  let net_device =
    match topology with
    | None -> Hwsim.Link.ib_dual_edr.Hwsim.Link.name
    | Some topo -> (Hwsim.Topology.leaf_link topo).Hwsim.Link.name
  in
  let serial_round_s =
    (gpu_frac *. (float_of_int k *. compute))
    +. ((1.0 -. gpu_frac) *. (float_of_int k *. host_compute))
    +. ar
  in
  let sched = Hwsim.Sched.create ?overlap ?trace () in
  let head =
    Hwsim.Split.co_work sched ~gpu_stream:"gpu" ~cpu_stream:"cpu"
      ~phase:"local-sgd"
      ~gpu_s:((float_of_int (k - 1) *. compute) +. (compute /. 3.0))
      ~cpu_s:((float_of_int (k - 1) *. host_compute) +. (host_compute /. 3.0))
      gpu_frac
  in
  let pf = float_of_int params in
  let prev = ref head in
  List.iter
    (fun p ->
      let frac = float_of_int p /. pf in
      let b =
        Hwsim.Split.co_work sched ~gpu_stream:"gpu" ~cpu_stream:"cpu"
          ~deps:!prev ~phase:"backprop"
          ~gpu_s:(2.0 /. 3.0 *. compute *. frac)
          ~cpu_s:(2.0 /. 3.0 *. host_compute *. frac)
          gpu_frac
      in
      ignore
        (Hwsim.Sched.work sched
           ~stream:
             (match comm with Hwsim.Split.Dedicated -> "net" | Inline -> "gpu")
           ~deps:b ~device:net_device ~phase:"allreduce" (ar *. frac));
      prev := b)
    (List.rev lps);
  let overlapped_round_s = Hwsim.Sched.run sched in
  let round_s =
    if Hwsim.Sched.overlap sched then overlapped_round_s else serial_round_s
  in
  let round_efficiency =
    if Hwsim.Sched.overlap sched && serial_round_s > 0.0 then
      overlapped_round_s /. serial_round_s
    else 1.0
  in
  {
    serial_round_s;
    overlapped_round_s;
    round_s;
    round_efficiency;
    dag = Hwsim.Sched.dag sched;
  }

(** Synchronous data-parallel SGD: every step all learners' gradients are
    averaged (modelled by training on the concatenated batch) and an
    allreduce is paid. *)
let sync_sgd ~(rng : Icoe_util.Rng.t) ~learners ~steps ~batch ~lr sizes data =
  let m = Mlp.create ~rng sizes in
  let params = Mlp.num_params m in
  let t = ref 0.0 in
  for _ = 1 to steps do
    (* each learner contributes a batch; gradients averaged = one big batch *)
    let xs, ls = minibatch ~rng ~batch:(batch * learners) data in
    ignore (Mlp.train_batch m ~lr xs ls);
    t := !t +. compute_time_per_batch ~params ~batch
         +. allreduce_time ~params ~learners ()
  done;
  {
    final_loss = Mlp.eval_loss m data.xs data.labels;
    final_accuracy = Mlp.accuracy m data.xs data.labels;
    simulated_seconds = !t;
    steps;
    overlap_efficiency = 1.0;
  }

(** ASGD: learners pull weights from a parameter server, compute a
    gradient, and push it back. By the time a gradient is applied it is
    [staleness] updates old (round-robin model). Stale gradients force a
    small stable learning rate — the paper's core criticism. *)
let asgd ~(rng : Icoe_util.Rng.t) ~learners ~steps ~batch ~lr ~staleness sizes data =
  if staleness < 0 then
    invalid_arg (Printf.sprintf "Distributed.asgd: staleness %d < 0" staleness);
  let server = Mlp.create ~rng sizes in
  let params = Mlp.num_params server in
  (* the last [slots] parameter snapshots, snapshot [s] (from 0) in
     slot [s mod slots]; [taken] snapshots so far *)
  let slots = staleness + 2 in
  let history = Array.init slots (fun _ -> Array.create_float params) in
  Mlp.get_params_into server history.(0);
  let taken = ref 1 in
  let worker = Mlp.clone server in
  let t = ref 0.0 in
  for _ = 1 to steps do
    (* gradient computed at stale parameters: [staleness] snapshots
       back, or the oldest one kept *)
    let age = min (!taken - 1) staleness in
    Mlp.set_params worker history.((!taken - 1 - age) mod slots);
    let xs, ls = minibatch ~rng ~batch data in
    Array.iteri (fun k x -> ignore (Mlp.backward worker x ~label:ls.(k))) xs;
    (* apply the stale gradient at the server *)
    Mlp.copy_grads ~src:worker ~dst:server;
    Mlp.zero_grads worker;
    Mlp.sgd_step server ~lr ~batch;
    Mlp.get_params_into server history.(!taken mod slots);
    incr taken;
    (* learners overlap compute; server applies sequentially *)
    t := !t +. (compute_time_per_batch ~params ~batch /. float_of_int learners)
         +. ps_roundtrip_time ~params
  done;
  {
    final_loss = Mlp.eval_loss server data.xs data.labels;
    final_accuracy = Mlp.accuracy server data.xs data.labels;
    simulated_seconds = !t;
    steps;
    overlap_efficiency = 1.0;
  }

(** KAVG: learners start from common weights, run [k] local SGD steps on
    their own shard, then average weights; bulk-synchronous. With
    overlap enabled the per-round wall clock comes from
    {!kavg_round_model}: the averaging allreduce is bucketed per layer
    and hidden under the last local step's backward pass. *)
let kavg ~(rng : Icoe_util.Rng.t) ~learners ~rounds ~k ~batch ~lr ?overlap
    sizes data =
  let center = Mlp.create ~rng sizes in
  let params = Mlp.num_params center in
  let shards = shard ~learners data in
  let overlapped =
    match overlap with Some b -> b | None -> Hwsim.Sched.overlap_enabled ()
  in
  let model = kavg_round_model ~overlap:overlapped ~learners ~k ~batch sizes in
  let workers = Array.map (fun _ -> Mlp.clone center) shards in
  let t = ref 0.0 in
  let start = Array.create_float params and p = Array.create_float params in
  let acc = Array.create_float params in
  for _ = 1 to rounds do
    Mlp.get_params_into center start;
    Array.fill acc 0 params 0.0;
    Array.iteri
      (fun wi sh ->
        let w = workers.(wi) in
        Mlp.reset w start;
        for _ = 1 to k do
          let xs, ls = minibatch ~rng ~batch sh in
          ignore (Mlp.train_batch w ~lr xs ls)
        done;
        Mlp.get_params_into w p;
        Linalg.Vec.axpy 1.0 p acc)
      shards;
    Linalg.Vec.scale (1.0 /. float_of_int learners) acc;
    Mlp.set_params center acc;
    (* learners run in parallel: k local steps + one allreduce per round
       (hidden under the last backward pass when overlapped) *)
    if overlapped then t := !t +. model.round_s
    else
      t := !t
           +. (float_of_int k *. compute_time_per_batch ~params ~batch)
           +. allreduce_time ~params ~learners ()
  done;
  {
    final_loss = Mlp.eval_loss center data.xs data.labels;
    final_accuracy = Mlp.accuracy center data.xs data.labels;
    simulated_seconds = !t;
    steps = rounds * k;
    overlap_efficiency = model.round_efficiency;
  }

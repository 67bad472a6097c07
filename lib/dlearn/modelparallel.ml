(** Real model-parallel execution: the LBANN idea at MLP scale.

    Each hidden layer's neurons are partitioned across [shards] simulated
    GPUs; every shard computes only its slice of the forward and backward
    passes, and the full activation/delta vectors are reassembled with
    all-gathers whose bytes are charged to a clock. The partitioned
    network computes *bit-identical* results to the unpartitioned one
    (tested) — exactly the property that makes spatial/model parallelism
    safe to deploy — while communication cost grows with shard count,
    which is where Fig 3's scaling curves come from. *)

type t = {
  reference : Mlp.t;  (** the unpartitioned network (shared weights) *)
  shards : int;
  clock : Hwsim.Clock.t;
  link : Hwsim.Link.t;
}

let create ?(link = Hwsim.Link.nvlink2) ~shards mlp =
  if shards < 1 then
    invalid_arg (Printf.sprintf "Modelparallel.create: %d shards < 1" shards);
  { reference = mlp; shards; clock = Hwsim.Clock.create (); link }

(* slice bounds of shard s over n units *)
let slice ~shards ~s n =
  let lo = n * s / shards and hi = n * (s + 1) / shards in
  (lo, hi)

let charge_allgather t ~floats =
  (* ring all-gather: (shards-1) hops each carrying one slice *)
  let bytes = 8.0 *. float_of_int floats /. float_of_int t.shards in
  let hops = float_of_int (t.shards - 1) in
  Hwsim.Clock.tick t.clock ~phase:"allgather"
    (hops *. Hwsim.Link.transfer_time t.link ~bytes)

(** Forward pass with each layer's output units computed shard by shard
    through {!Mlp.forward_rows}, followed by an all-gather of the
    assembled activation. Returns the class probabilities. *)
let predict_proba t x =
  let m = t.reference in
  let sizes = Mlp.sizes m in
  let act = ref (Icoe_util.Fbuf.of_array x) in
  for l = 0 to Array.length sizes - 2 do
    let nout = sizes.(l + 1) in
    let z = Icoe_util.Fbuf.create nout in
    (* each shard computes its slice of output units *)
    for s = 0 to t.shards - 1 do
      let lo, hi = slice ~shards:t.shards ~s nout in
      Mlp.forward_rows m ~layer:l ~src:!act ~dst:z ~lo ~hi
    done;
    charge_allgather t ~floats:nout;
    act := z
  done;
  Mlp.softmax (Icoe_util.Fbuf.to_array !act)

(** Per-batch time model: compute divided across shards, one all-gather
    per layer. Used to produce real strong-scaling curves from the actual
    parameter counts. *)
let batch_time t ~batch =
  let params = Mlp.num_params t.reference in
  let compute =
    6.0 *. float_of_int (params * batch)
    /. (Hwsim.Device.v100.Hwsim.Device.peak_gflops *. 1e9 *. 0.3)
    /. float_of_int t.shards
  in
  let sizes = Mlp.sizes t.reference in
  let comm = ref 0.0 in
  for l = 1 to Array.length sizes - 1 do
    let bytes = 8.0 *. float_of_int (sizes.(l) * batch) /. float_of_int t.shards in
    comm :=
      !comm
      +. (float_of_int (t.shards - 1) *. Hwsim.Link.transfer_time t.link ~bytes)
  done;
  compute +. !comm

(** Strong-scaling speedup of [shards] GPUs over one, from the real
    per-batch time model of this network. *)
let strong_scaling ~link mlp ~batch ~shards =
  let t1 = batch_time (create ~link ~shards:1 mlp) ~batch in
  let ts = batch_time (create ~link ~shards mlp) ~batch in
  t1 /. ts

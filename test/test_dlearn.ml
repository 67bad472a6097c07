(* Tests for the deep-learning activity: MLP/backprop correctness, the
   distributed-training comparison (KAVG vs ASGD), the Table 3 ensemble
   study, and the Fig 3 LBANN scaling model. *)

open Dlearn

let rng () = Icoe_util.Rng.create 111

(* --- mlp --- *)

let test_forward_shapes () =
  let m = Mlp.create ~rng:(rng ()) [| 4; 8; 3 |] in
  let p = Mlp.predict_proba m [| 0.1; -0.2; 0.3; 0.5 |] in
  Alcotest.(check int) "output size" 3 (Array.length p);
  Alcotest.(check (float 1e-9)) "probs sum to 1" 1.0 (Icoe_util.Stats.sum p)

let test_param_roundtrip () =
  let m = Mlp.create ~rng:(rng ()) [| 3; 5; 2 |] in
  let p = Mlp.get_params m in
  Alcotest.(check int) "param count" ((3 * 5) + 5 + (5 * 2) + 2) (Array.length p);
  let m2 = Mlp.create ~rng:(Icoe_util.Rng.create 999) [| 3; 5; 2 |] in
  Mlp.set_params m2 p;
  let x = [| 0.3; -0.7; 1.1 |] in
  Alcotest.(check bool) "identical predictions after transplant" true
    (Icoe_util.Stats.max_abs_diff (Mlp.predict_proba m x) (Mlp.predict_proba m2 x)
    < 1e-15)

let test_gradient_check () =
  (* finite-difference check of backprop on a tiny network *)
  let m = Mlp.create ~rng:(rng ()) [| 2; 3; 2 |] in
  let x = [| 0.5; -0.3 |] in
  let label = 1 in
  Mlp.zero_grads m;
  ignore (Mlp.backward m x ~label);
  let analytic = Mlp.get_grads m in
  Mlp.zero_grads m;
  (* numeric gradient via parameter perturbation: get_grads and
     get_params share one layout (w rows then b per layer) *)
  let loss_at params =
    let m2 = Mlp.create ~rng:(Icoe_util.Rng.create 1) [| 2; 3; 2 |] in
    Mlp.set_params m2 params;
    let p = Mlp.predict_proba m2 x in
    -.log (max 1e-12 p.(label))
  in
  let p0 = Mlp.get_params m in
  let eps = 1e-6 in
  Array.iteri
    (fun k _ ->
      let pp = Array.copy p0 in
      pp.(k) <- pp.(k) +. eps;
      let pm = Array.copy p0 in
      pm.(k) <- pm.(k) -. eps;
      let numeric = (loss_at pp -. loss_at pm) /. (2.0 *. eps) in
      Alcotest.(check bool)
        (Fmt.str "grad %d: %.6f vs %.6f" k analytic.(k) numeric)
        true
        (Float.abs (analytic.(k) -. numeric) < 1e-4))
    p0

let test_learns_separable_task () =
  let r = rng () in
  let data = Distributed.make_task ~rng:r ~classes:3 ~dim:6 ~n:300 ~spread:0.6 () in
  let m = Mlp.create ~rng:r [| 6; 12; 3 |] in
  for _ = 1 to 300 do
    let xs, ls = Distributed.minibatch ~rng:r ~batch:32 data in
    ignore (Mlp.train_batch ~momentum:0.9 m ~lr:0.05 xs ls)
  done;
  let acc = Mlp.accuracy m data.Distributed.xs data.Distributed.labels in
  Alcotest.(check bool) (Fmt.str "acc %.3f > 0.9" acc) true (acc > 0.9)

(* --- distributed --- *)

let test_sync_sgd_converges () =
  let r = rng () in
  let data = Distributed.make_task ~rng:r () in
  let run =
    Distributed.sync_sgd ~rng:r ~learners:4 ~steps:300 ~batch:16 ~lr:0.05
      [| 12; 16; 4 |] data
  in
  Alcotest.(check bool) "good accuracy" true (run.Distributed.final_accuracy > 0.8);
  Alcotest.(check bool) "time accounted" true (run.Distributed.simulated_seconds > 0.0)

let test_kavg_beats_asgd () =
  (* Sec 4.5 / [34]: at a practical learning rate, ASGD's stale gradients
     degrade the result; KAVG with the same budget does better *)
  let task r = Distributed.make_task ~rng:r ~spread:1.0 () in
  let sizes = [| 12; 16; 4 |] in
  let asgd =
    Distributed.asgd ~rng:(rng ()) ~learners:8 ~steps:800 ~batch:16 ~lr:0.08
      ~staleness:8 sizes (task (rng ()))
  in
  let kavg =
    Distributed.kavg ~rng:(rng ()) ~learners:8 ~rounds:100 ~k:8 ~batch:16
      ~lr:0.08 sizes (task (rng ()))
  in
  Alcotest.(check bool)
    (Fmt.str "kavg loss %.3f <= asgd loss %.3f" kavg.Distributed.final_loss
       asgd.Distributed.final_loss)
    true
    (kavg.Distributed.final_loss <= asgd.Distributed.final_loss);
  (* same number of gradient evaluations *)
  Alcotest.(check int) "same budget" asgd.Distributed.steps kavg.Distributed.steps

let test_kavg_overlap_model () =
  let sizes = [| 12; 16; 4 |] in
  let on = Distributed.kavg_round_model ~overlap:true ~learners:8 ~k:8 ~batch:16 sizes in
  let off = Distributed.kavg_round_model ~overlap:false ~learners:8 ~k:8 ~batch:16 sizes in
  Alcotest.(check (float 0.0)) "modes agree on serial cost"
    off.Distributed.serial_round_s on.Distributed.serial_round_s;
  (* layer-bucketed allreduce under the last local step's backprop:
     strictly lower round time *)
  Alcotest.(check bool)
    (Fmt.str "overlapped %.3e < serial %.3e" on.Distributed.overlapped_round_s
       on.Distributed.serial_round_s)
    true
    (on.Distributed.overlapped_round_s < on.Distributed.serial_round_s);
  Alcotest.(check (float 0.0)) "overlap charges overlapped"
    on.Distributed.overlapped_round_s on.Distributed.round_s;
  Alcotest.(check (float 0.0)) "serial mode charges serial"
    off.Distributed.serial_round_s off.Distributed.round_s;
  Alcotest.(check bool) "efficiency in (0,1)" true
    (on.Distributed.round_efficiency > 0.0
    && on.Distributed.round_efficiency < 1.0);
  Alcotest.(check (float 0.0)) "serial efficiency is 1" 1.0
    off.Distributed.round_efficiency;
  (* a full run wires the round model through: overlapped run clocks
     strictly less simulated time on the same seed and budget *)
  let run overlap =
    Distributed.kavg ~rng:(rng ()) ~learners:8 ~rounds:20 ~k:8 ~batch:16
      ~lr:0.05 ~overlap sizes
      (Distributed.make_task ~rng:(rng ()) ~spread:1.0 ())
  in
  let r_on = run true and r_off = run false in
  Alcotest.(check bool)
    (Fmt.str "run %.4f s < %.4f s" r_on.Distributed.simulated_seconds
       r_off.Distributed.simulated_seconds)
    true
    (r_on.Distributed.simulated_seconds < r_off.Distributed.simulated_seconds);
  Alcotest.(check (float 1e-12)) "run reports the round efficiency"
    on.Distributed.round_efficiency r_on.Distributed.overlap_efficiency;
  Alcotest.(check (float 0.0)) "serial run reports 1.0" 1.0
    r_off.Distributed.overlap_efficiency;
  (* training outcome is identical — overlap only moves the clock *)
  Alcotest.(check (float 0.0)) "same final loss" r_off.Distributed.final_loss
    r_on.Distributed.final_loss

let test_split_default_bit_identical () =
  (* the tuner contract: gpu_frac = 1.0 with the allreduce on its own
     "net" stream reproduces the unsplit round model bitwise *)
  let sizes = [| 12; 16; 4 |] in
  let bits = Int64.bits_of_float in
  List.iter
    (fun overlap ->
      let a =
        Distributed.kavg_round_model ~overlap ~learners:8 ~k:8 ~batch:16 sizes
      in
      let b =
        Distributed.kavg_round_model ~overlap ~gpu_frac:1.0
          ~comm:Hwsim.Split.Dedicated ~learners:8 ~k:8 ~batch:16 sizes
      in
      let who = if overlap then "overlap" else "serial" in
      Alcotest.(check int64) (who ^ ": serial_round_s bitwise")
        (bits a.Distributed.serial_round_s)
        (bits b.Distributed.serial_round_s);
      Alcotest.(check int64) (who ^ ": overlapped_round_s bitwise")
        (bits a.Distributed.overlapped_round_s)
        (bits b.Distributed.overlapped_round_s);
      Alcotest.(check int64) (who ^ ": round_s bitwise")
        (bits a.Distributed.round_s) (bits b.Distributed.round_s);
      Alcotest.(check int64) (who ^ ": efficiency bitwise")
        (bits a.Distributed.round_efficiency)
        (bits b.Distributed.round_efficiency);
      Alcotest.(check int) (who ^ ": same DAG size")
        (Array.length a.Distributed.dag)
        (Array.length b.Distributed.dag))
    [ true; false ]

let test_split_partial_co_executes () =
  let sizes = [| 12; 16; 4 |] in
  let d =
    Distributed.kavg_round_model ~overlap:true ~learners:8 ~k:8 ~batch:16 sizes
  in
  let m =
    Distributed.kavg_round_model ~overlap:true ~gpu_frac:0.5 ~learners:8 ~k:8
      ~batch:16 sizes
  in
  (* host co-execution items join the DAG and, with the host side far
     slower than the V100, the blended serial round costs more *)
  Alcotest.(check bool) "CPU items enqueued" true
    (Array.length m.Distributed.dag > Array.length d.Distributed.dag);
  Alcotest.(check bool)
    (Fmt.str "half-split serial %.3e > all-GPU %.3e"
       m.Distributed.serial_round_s d.Distributed.serial_round_s)
    true
    (m.Distributed.serial_round_s > d.Distributed.serial_round_s)

let test_kavg_optimal_k_exceeds_one () =
  (* "the optimal K for convergence is usually greater than one": with
     communication priced in, loss-at-equal-simulated-time favours K > 1 *)
  let sizes = [| 12; 16; 4 |] in
  let result k rounds =
    Distributed.kavg ~rng:(rng ()) ~learners:8 ~rounds ~k ~batch:16 ~lr:0.05
      sizes
      (Distributed.make_task ~rng:(rng ()) ~spread:1.0 ())
  in
  let r1 = result 1 60 in
  (* k=4 with 4x fewer rounds: similar compute, 4x less communication *)
  let r4 = result 4 15 in
  Alcotest.(check bool) "k=4 spends less simulated time" true
    (r4.Distributed.simulated_seconds < r1.Distributed.simulated_seconds);
  Alcotest.(check bool)
    (Fmt.str "k=4 loss %.3f not much worse than k=1 %.3f"
       r4.Distributed.final_loss r1.Distributed.final_loss)
    true
    (r4.Distributed.final_loss < r1.Distributed.final_loss +. 0.15)

let test_asgd_staleness_hurts () =
  let sizes = [| 12; 16; 4 |] in
  let run staleness =
    Distributed.asgd ~rng:(rng ()) ~learners:8 ~steps:500 ~batch:16 ~lr:0.1
      ~staleness sizes
      (Distributed.make_task ~rng:(rng ()) ~spread:1.0 ())
  in
  let fresh = run 0 and stale = run 16 in
  Alcotest.(check bool)
    (Fmt.str "stale %.3f >= fresh %.3f" stale.Distributed.final_loss
       fresh.Distributed.final_loss)
    true
    (stale.Distributed.final_loss >= fresh.Distributed.final_loss -. 0.02)

(* --- model parallel (real execution) --- *)

let test_model_parallel_identical () =
  (* the sharded network must compute bit-identical probabilities *)
  let r = rng () in
  let m = Mlp.create ~rng:r [| 10; 24; 5 |] in
  let x = Array.init 10 (fun i -> sin (float_of_int i)) in
  let reference = Mlp.predict_proba m x in
  List.iter
    (fun shards ->
      let mp = Modelparallel.create ~shards m in
      let p = Modelparallel.predict_proba mp x in
      Alcotest.(check (array int64))
        (Fmt.str "%d shards bit-identical" shards)
        (Array.map Int64.bits_of_float reference)
        (Array.map Int64.bits_of_float p))
    [ 1; 2; 3; 4 ];
  (* communication charged for multi-shard runs *)
  let mp = Modelparallel.create ~shards:4 m in
  ignore (Modelparallel.predict_proba mp x);
  Alcotest.(check bool) "allgather charged" true
    (Hwsim.Clock.total mp.Modelparallel.clock > 0.0)

let test_model_parallel_scaling_shape () =
  (* real parameter counts: speedup grows with shards but sub-linearly
     (all-gather cost), echoing Fig 3's strong-scaling curvature *)
  let r = rng () in
  (* activation-heavy configuration (LBANN's semantic-segmentation regime:
     large spatial activations, hence the large batch here) *)
  let big = Mlp.create ~rng:r [| 512; 1024; 1024; 128 |] in
  let s2 = Modelparallel.strong_scaling ~link:Hwsim.Link.nvlink2 big ~batch:512 ~shards:2 in
  let s4 = Modelparallel.strong_scaling ~link:Hwsim.Link.nvlink2 big ~batch:512 ~shards:4 in
  let s8 = Modelparallel.strong_scaling ~link:Hwsim.Link.nvlink2 big ~batch:512 ~shards:8 in
  Alcotest.(check bool) (Fmt.str "s2=%.2f in (1,2]" s2) true (s2 > 1.0 && s2 <= 2.0);
  Alcotest.(check bool) "monotone" true (s4 > s2 && s8 > s4);
  Alcotest.(check bool) (Fmt.str "s8=%.2f sublinear" s8) true (s8 < 8.0)

let test_easgd_converges () =
  let run =
    Distributed.easgd ~rng:(rng ()) ~learners:8 ~rounds:80 ~k:8 ~batch:16
      ~lr:0.08 [| 12; 16; 4 |]
      (Distributed.make_task ~rng:(rng ()) ~spread:1.0 ())
  in
  Alcotest.(check bool)
    (Fmt.str "easgd acc %.3f > 0.85" run.Distributed.final_accuracy)
    true
    (run.Distributed.final_accuracy > 0.85)

(* --- table 3 --- *)

let test_table3_easy_shape () =
  let rows = Videonet.table3 ~rng:(rng ()) Videonet.Easy in
  let acc c = List.assoc c rows in
  let singles = [ acc (Videonet.Single 0); acc (Videonet.Single 1); acc (Videonet.Single 2) ] in
  let best_single = List.fold_left max 0.0 singles in
  List.iter
    (fun comb ->
      Alcotest.(check bool)
        (Videonet.combiner_name comb ^ " beats singles")
        true
        (acc comb > best_single))
    [ Videonet.Simple_average; Videonet.Weighted_average;
      Videonet.Logistic_regression; Videonet.Shallow_nn ];
  Alcotest.(check bool) "singles in the 75-90% band" true
    (List.for_all (fun a -> a > 0.72 && a < 0.92) singles);
  Alcotest.(check bool) "ensembles above 90%" true
    (acc Videonet.Simple_average > 0.9)

let test_table3_hard_shape () =
  let rows = Videonet.table3 ~rng:(rng ()) Videonet.Hard in
  let acc c = List.assoc c rows in
  let best_single =
    List.fold_left max 0.0
      [ acc (Videonet.Single 0); acc (Videonet.Single 1); acc (Videonet.Single 2) ]
  in
  Alcotest.(check bool) "fusion beats singles" true
    (acc Videonet.Simple_average > best_single +. 0.1);
  (* the I3D-style end-to-end model: competitive on easy, clearly below
     the learned ensembles on hard (the paper's comparison row) *)
  Alcotest.(check bool) "end-to-end below stacked LR on hard" true
    (acc Videonet.End_to_end < acc Videonet.Logistic_regression);
  (* the HMDB51 column's signature: the learned combiner clearly beats
     plain averaging on the hard set *)
  Alcotest.(check bool)
    (Fmt.str "LR %.3f > avg %.3f + 0.03" (acc Videonet.Logistic_regression)
       (acc Videonet.Simple_average))
    true
    (acc Videonet.Logistic_regression > acc Videonet.Simple_average +. 0.03);
  Alcotest.(check bool) "hard is harder than easy" true
    (acc Videonet.Simple_average
    < List.assoc Videonet.Simple_average (Videonet.table3 ~rng:(rng ()) Videonet.Easy))

(* --- lbann / fig 3 --- *)

let test_lbann_memory_constraint () =
  Alcotest.(check int) "needs at least 2 GPUs per sample" 2
    Lbann.min_gpus_per_sample

let test_lbann_strong_scaling_points () =
  let s4 = Lbann.strong_scaling_speedup 4 in
  let s8 = Lbann.strong_scaling_speedup 8 in
  let s16 = Lbann.strong_scaling_speedup 16 in
  Alcotest.(check bool) (Fmt.str "S(4)=%.2f near-perfect" s4) true
    (s4 > 1.7 && s4 <= 2.0);
  Alcotest.(check bool) (Fmt.str "S(8)=%.2f ~ 2.8" s8) true (s8 > 2.6 && s8 < 3.0);
  Alcotest.(check bool) (Fmt.str "S(16)=%.2f ~ 3.4" s16) true (s16 > 3.2 && s16 < 3.7)

let test_lbann_weak_scaling () =
  (* weak scaling to 2048 GPUs stays efficient *)
  List.iter
    (fun g ->
      let eff = Lbann.weak_scaling_efficiency ~g ~total0:(g * 4) ~total1:2048 in
      Alcotest.(check bool)
        (Fmt.str "g=%d eff %.2f > 0.85" g eff)
        true (eff > 0.85))
    [ 2; 4; 8; 16 ];
  (* more GPUs always give more aggregate throughput *)
  let t1 = Lbann.weak_scaling_throughput ~total_gpus:256 ~g:4 in
  let t2 = Lbann.weak_scaling_throughput ~total_gpus:2048 ~g:4 in
  Alcotest.(check bool) "throughput grows" true (t2 > 4.0 *. t1)

(* The plain [float array array] MLP that [Mlp] replaced, kept as the
   bit-exact oracle of its exact-order contract (like the [*_seq] oracles
   of the pooled kernels): closures and fresh arrays everywhere, every
   floating-point operation in the reference order. *)
module Ref_mlp = struct
  type layer = {
    w : float array array;
    b : float array;
    gw : float array array;
    gb : float array;
    mw : float array array;
    mb : float array;
  }

  let create ~rng sizes =
    Array.init (Array.length sizes - 1) (fun l ->
        let nin = sizes.(l) and nout = sizes.(l + 1) in
        let scale = sqrt (2.0 /. float_of_int nin) in
        {
          w =
            Array.init nout (fun _ ->
                Array.init nin (fun _ -> scale *. Icoe_util.Rng.gaussian rng));
          b = Array.make nout 0.0;
          gw = Array.make_matrix nout nin 0.0;
          gb = Array.make nout 0.0;
          mw = Array.make_matrix nout nin 0.0;
          mb = Array.make nout 0.0;
        })

  let get_params layers =
    Array.concat
      (List.concat_map
         (fun l -> Array.to_list l.w @ [ l.b ])
         (Array.to_list layers))

  let softmax z =
    let mx = Array.fold_left max neg_infinity z in
    let e = Array.map (fun v -> exp (v -. mx)) z in
    let s = Icoe_util.Stats.sum e in
    Array.map (fun v -> v /. s) e

  let forward_full layers x =
    let nl = Array.length layers in
    let acts = Array.make (nl + 1) [||] in
    acts.(0) <- x;
    for l = 0 to nl - 1 do
      let lay = layers.(l) in
      let z =
        Array.mapi
          (fun o row ->
            let s = ref lay.b.(o) in
            Array.iteri (fun i v -> s := !s +. (v *. acts.(l).(i))) row;
            !s)
          lay.w
      in
      acts.(l + 1) <- (if l = nl - 1 then z else Array.map tanh z)
    done;
    acts

  let predict_proba layers x =
    softmax (forward_full layers x).(Array.length layers)

  (* the first most probable class *)
  let predict layers x =
    let p = predict_proba layers x in
    let best = ref 0 in
    Array.iteri (fun i v -> if v > p.(!best) then best := i) p;
    !best

  let backward layers x ~label =
    let nl = Array.length layers in
    let acts = forward_full layers x in
    let probs = softmax acts.(nl) in
    let loss = -.log (max 1e-12 probs.(label)) in
    let delta =
      ref (Array.mapi (fun i p -> p -. if i = label then 1.0 else 0.0) probs)
    in
    for l = nl - 1 downto 0 do
      let lay = layers.(l) in
      let a_in = acts.(l) in
      Array.iteri
        (fun o d ->
          lay.gb.(o) <- lay.gb.(o) +. d;
          Array.iteri
            (fun i ai -> lay.gw.(o).(i) <- lay.gw.(o).(i) +. (d *. ai))
            a_in)
        !delta;
      if l > 0 then begin
        let nd = Array.make (Array.length a_in) 0.0 in
        Array.iteri
          (fun o d ->
            Array.iteri (fun i wv -> nd.(i) <- nd.(i) +. (d *. wv)) lay.w.(o))
          !delta;
        delta :=
          Array.mapi (fun i v -> v *. (1.0 -. (a_in.(i) *. a_in.(i)))) nd
      end
    done;
    loss

  let sgd_step ?(momentum = 0.0) ?(weight_decay = 0.0) layers ~lr ~batch =
    let scale = 1.0 /. float_of_int (max 1 batch) in
    Array.iter
      (fun l ->
        Array.iteri
          (fun o row ->
            Array.iteri
              (fun i _ ->
                let g = (l.gw.(o).(i) *. scale) +. (weight_decay *. row.(i)) in
                l.mw.(o).(i) <- (momentum *. l.mw.(o).(i)) -. (lr *. g);
                row.(i) <- row.(i) +. l.mw.(o).(i))
              row;
            let g = l.gb.(o) *. scale in
            l.mb.(o) <- (momentum *. l.mb.(o)) -. (lr *. g);
            l.b.(o) <- l.b.(o) +. l.mb.(o))
          l.w;
        Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) l.gw;
        Array.fill l.gb 0 (Array.length l.gb) 0.0)
      layers

  let train_batch ?momentum layers ~lr xs labels =
    let total = ref 0.0 in
    Array.iteri
      (fun k x -> total := !total +. backward layers x ~label:labels.(k))
      xs;
    sgd_step ?momentum layers ~lr ~batch:(Array.length xs);
    !total /. float_of_int (Array.length xs)
end

let bits a = Array.map Int64.bits_of_float a

(* a random network shape: [depth] widths in 1..[max_width] *)
let random_sizes r ~depth ~max_width =
  Array.init depth (fun _ -> 1 + Icoe_util.Rng.int r max_width)

let random_input r sizes =
  Array.init sizes.(0) (fun _ -> Icoe_util.Rng.uniform r (-2.0) 2.0)

let random_batch r sizes n =
  let classes = sizes.(Array.length sizes - 1) in
  ( Array.init n (fun _ -> random_input r sizes),
    Array.init n (fun _ -> Icoe_util.Rng.int r classes) )

let same a b = bits a = bits b

let prop_mlp_matches_reference =
  (* widths 1..20 and batches 1..40 hit every remainder of the kernels'
     2-example, 4-row and 4-input blocks and span two workspace chunks;
     1..4 weight layers; with and without momentum *)
  QCheck.Test.make ~name:"flat mlp bit-identical to the array oracle"
    ~count:200
    QCheck.(
      quad (int_range 1 100_000) (int_range 2 5) (int_range 1 40) bool)
    (fun (seed, depth, batch, momentum) ->
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:20 in
      let classes = sizes.(depth - 1) in
      let momentum = if momentum then 0.9 else 0.0 in
      let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let ok = ref (same (Mlp.get_params m) (Ref_mlp.get_params o)) in
      for _ = 1 to 4 do
        let xs, ls = random_batch r sizes batch in
        let lm = Mlp.train_batch ~momentum m ~lr:0.3 xs ls in
        let lo = Ref_mlp.train_batch ~momentum o ~lr:0.3 xs ls in
        ok := !ok && same [| lm |] [| lo |]
      done;
      (* one explicit step with weight decay *)
      let x = random_input r sizes and label = Icoe_util.Rng.int r classes in
      let lm = Mlp.backward m x ~label and lo = Ref_mlp.backward o x ~label in
      Mlp.sgd_step ~momentum ~weight_decay:1e-3 m ~lr:0.1 ~batch:1;
      Ref_mlp.sgd_step ~momentum ~weight_decay:1e-3 o ~lr:0.1 ~batch:1;
      let x = random_input r sizes in
      !ok
      && same [| lm |] [| lo |]
      && same (Mlp.get_params m) (Ref_mlp.get_params o)
      && same (Mlp.predict_proba m x) (Ref_mlp.predict_proba o x)
      && Mlp.predict m x = Ref_mlp.predict o x)

let prop_mlp_workspace_reuse =
  (* big -> small -> big batches on one model: rows a small batch leaves
     unwritten must never reach a later result *)
  QCheck.Test.make ~name:"mlp big-small-big batches match the oracle"
    ~count:100
    QCheck.(triple (int_range 1 100_000) (int_range 2 4) (int_range 1 8))
    (fun (seed, depth, small) ->
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:12 in
      let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let step n =
        let xs, ls = random_batch r sizes n in
        let lm = Mlp.train_batch ~momentum:0.9 m ~lr:0.2 xs ls in
        let lo = Ref_mlp.train_batch ~momentum:0.9 o ~lr:0.2 xs ls in
        same [| lm |] [| lo |]
      in
      let steps = List.map step [ 40; small; 37; small + 1; 40 ] in
      let xs, ls = random_batch r sizes 40 in
      let acc = Mlp.accuracy m xs ls in
      let ref_acc =
        let hits = ref 0 in
        Array.iteri
          (fun k x -> if Ref_mlp.predict o x = ls.(k) then incr hits)
          xs;
        float_of_int !hits /. 40.0
      in
      List.for_all Fun.id steps
      && same (Mlp.get_params m) (Ref_mlp.get_params o)
      && acc = ref_acc)

let prop_mlp_backward_is_batch_of_one =
  (* n single-example backward calls, then one sgd_step ~batch:n, equal
     one train_batch over the same examples bit for bit *)
  QCheck.Test.make ~name:"mlp n backward + sgd_step = train_batch" ~count:100
    QCheck.(triple (int_range 1 100_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, depth, n) ->
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:12 in
      let a = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let b = Mlp.clone a in
      let ok = ref true in
      for _ = 1 to 3 do
        let xs, ls = random_batch r sizes n in
        let la = Mlp.train_batch ~momentum:0.9 a ~lr:0.2 xs ls in
        let total = ref 0.0 in
        Array.iteri
          (fun k x -> total := !total +. Mlp.backward b x ~label:ls.(k))
          xs;
        Mlp.sgd_step ~momentum:0.9 b ~lr:0.2 ~batch:n;
        ok :=
          !ok
          && same [| la |] [| !total /. float_of_int n |]
          && same (Mlp.get_params a) (Mlp.get_params b)
      done;
      !ok)

let prop_mlp_forward_rows_split =
  (* each layer's output rows computed in three arbitrary ranges through
     forward_rows compose to the oracle's forward pass *)
  QCheck.Test.make ~name:"mlp forward_rows on split ranges = full forward"
    ~count:100
    QCheck.(pair (int_range 1 100_000) (int_range 2 5))
    (fun (seed, depth) ->
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:20 in
      let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let x = random_input r sizes in
      let acts = Ref_mlp.forward_full o x in
      let ok = ref true in
      let src = ref (Icoe_util.Fbuf.of_array x) in
      for l = 0 to depth - 2 do
        let nout = sizes.(l + 1) in
        let dst = Icoe_util.Fbuf.create nout in
        let c1 = Icoe_util.Rng.int r (nout + 1) in
        let c2 = c1 + Icoe_util.Rng.int r (nout - c1 + 1) in
        List.iter
          (fun (lo, hi) -> Mlp.forward_rows m ~layer:l ~src:!src ~dst ~lo ~hi)
          [ (c1, c2); (0, c1); (c2, nout) ];
        ok := !ok && same (Icoe_util.Fbuf.to_array dst) acts.(l + 1);
        src := dst
      done;
      !ok)

let prop_mlp_probs_normalized =
  QCheck.Test.make ~name:"softmax outputs normalized" ~count:50
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let r = Icoe_util.Rng.create seed in
      let m = Mlp.create ~rng:r [| 3; 4; 3 |] in
      let x = Array.init 3 (fun _ -> Icoe_util.Rng.uniform r (-2.0) 2.0) in
      let p = Mlp.predict_proba m x in
      Float.abs (Icoe_util.Stats.sum p -. 1.0) < 1e-9
      && Array.for_all (fun v -> v >= 0.0) p)

let () =
  Alcotest.run "dlearn"
    [
      ( "mlp",
        [
          Alcotest.test_case "forward" `Quick test_forward_shapes;
          Alcotest.test_case "param roundtrip" `Quick test_param_roundtrip;
          Alcotest.test_case "gradient check" `Quick test_gradient_check;
          Alcotest.test_case "learns" `Quick test_learns_separable_task;
          QCheck_alcotest.to_alcotest prop_mlp_probs_normalized;
          QCheck_alcotest.to_alcotest prop_mlp_matches_reference;
          QCheck_alcotest.to_alcotest prop_mlp_workspace_reuse;
          QCheck_alcotest.to_alcotest prop_mlp_backward_is_batch_of_one;
          QCheck_alcotest.to_alcotest prop_mlp_forward_rows_split;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "sync sgd" `Quick test_sync_sgd_converges;
          Alcotest.test_case "kavg beats asgd" `Slow test_kavg_beats_asgd;
          Alcotest.test_case "optimal k > 1" `Slow test_kavg_optimal_k_exceeds_one;
          Alcotest.test_case "kavg overlap model" `Quick test_kavg_overlap_model;
          Alcotest.test_case "split default bit-identical" `Quick
            test_split_default_bit_identical;
          Alcotest.test_case "split co-executes" `Quick
            test_split_partial_co_executes;
          Alcotest.test_case "staleness hurts" `Slow test_asgd_staleness_hurts;
        ] );
      ( "modelparallel",
        [
          Alcotest.test_case "identical results" `Quick test_model_parallel_identical;
          Alcotest.test_case "scaling shape" `Quick test_model_parallel_scaling_shape;
          Alcotest.test_case "easgd" `Slow test_easgd_converges;
        ] );
      ( "videonet",
        [
          Alcotest.test_case "table3 easy" `Slow test_table3_easy_shape;
          Alcotest.test_case "table3 hard" `Slow test_table3_hard_shape;
        ] );
      ( "lbann",
        [
          Alcotest.test_case "memory constraint" `Quick test_lbann_memory_constraint;
          Alcotest.test_case "strong scaling" `Quick test_lbann_strong_scaling_points;
          Alcotest.test_case "weak scaling" `Quick test_lbann_weak_scaling;
        ] );
    ]

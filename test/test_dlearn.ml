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

  let get_grads layers =
    Array.concat
      (List.concat_map
         (fun l -> Array.to_list l.gw @ [ l.gb ])
         (Array.to_list layers))

  let set_params layers buf =
    let k = ref 0 in
    Array.iter
      (fun l ->
        Array.iter
          (fun row ->
            Array.blit buf !k row 0 (Array.length row);
            k := !k + Array.length row)
          l.w;
        Array.blit buf !k l.b 0 (Array.length l.b);
        k := !k + Array.length l.b)
      layers

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
  (* widths 1..20 hit the kernels' 16-, 8- and 4-wide blocks and every
     scalar tail, batches 1..40 every remainder of their 2-, 4- and
     8-row groups, and span two workspace chunks; 1..4 weight layers;
     with and without momentum *)
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

(* [step] on a packed batch runs train_batch's chunk core on the batch's
   rows in place and skips the loss: k steps leave the parameters, and
   the momentum a later train_batch reads, bit-equal to k train_batch
   calls on the arrays it was packed from. Batch sizes on both sides of
   the 32-example chunk; every other case has an input width of 2 mod 4,
   where the gradient kernel runs its 2-lane pair. *)
let prop_mlp_step_is_train_batch =
  QCheck.Test.make ~name:"mlp step on a packed batch = train_batch"
    ~count:100
    QCheck.(
      quad (int_range 1 100_000) (int_range 2 4) (int_range 0 4) bool)
    (fun (seed, depth, which, momentum) ->
      let n = [| 1; 31; 32; 33; 65 |].(which) in
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:20 in
      if seed mod 2 = 0 then sizes.(0) <- 2 + (4 * Icoe_util.Rng.int r 5);
      let momentum = if momentum then 0.9 else 0.0 in
      let a = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let b = Mlp.clone a in
      let xs, ls = random_batch r sizes n in
      let packed = Mlp.batch xs ls in
      for _ = 1 to 1 + Icoe_util.Rng.int r 3 do
        Mlp.step ~momentum a ~lr:0.2 packed;
        ignore (Mlp.train_batch ~momentum b ~lr:0.2 xs ls)
      done;
      let stepped = same (Mlp.get_params a) (Mlp.get_params b) in
      let xs, ls = random_batch r sizes n in
      let la = Mlp.train_batch ~momentum a ~lr:0.2 xs ls in
      let lb = Mlp.train_batch ~momentum b ~lr:0.2 xs ls in
      stepped
      && same [| la |] [| lb |]
      && same (Mlp.get_params a) (Mlp.get_params b))

(* The gradient kernel runs the last two inputs past its 4-wide blocks
   as one 2-lane pair when two or three are left: the Table 3 streams
   (10 -> 8) and end-to-end model (30 -> 12 -> 8), and widths where the
   pair is all there is or follows a scalar tail. Gradients after
   single-example backward calls, then losses and parameters after
   chunked steps, bit for bit against the oracle. *)
let test_mlp_gradient_pairs () =
  List.iter
    (fun sizes ->
      let seed = Array.fold_left ( + ) 0 sizes in
      let r = Icoe_util.Rng.create seed in
      let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let name what =
        Fmt.str "%a: %s" Fmt.(array ~sep:semi int) sizes what
      in
      let xs, ls = random_batch r sizes 5 in
      Array.iteri
        (fun k x ->
          ignore (Mlp.backward m x ~label:ls.(k));
          ignore (Ref_mlp.backward o x ~label:ls.(k)))
        xs;
      Alcotest.(check bool) (name "grads") true
        (same (Mlp.get_grads m) (Ref_mlp.get_grads o));
      Mlp.sgd_step ~momentum:0.9 m ~lr:0.1 ~batch:5;
      Ref_mlp.sgd_step ~momentum:0.9 o ~lr:0.1 ~batch:5;
      List.iter
        (fun n ->
          let xs, ls = random_batch r sizes n in
          let lm = Mlp.train_batch ~momentum:0.9 m ~lr:0.1 xs ls in
          let lo = Ref_mlp.train_batch ~momentum:0.9 o ~lr:0.1 xs ls in
          Alcotest.(check bool) (name (Fmt.str "loss, batch %d" n)) true
            (same [| lm |] [| lo |]))
        [ 1; 31; 32; 33; 65 ];
      Alcotest.(check bool) (name "params") true
        (same (Mlp.get_params m) (Ref_mlp.get_params o)))
    [
      [| 10; 8 |]; [| 30; 12; 8 |]; [| 2; 3 |]; [| 3; 4 |]; [| 6; 5; 2 |];
      [| 11; 7; 3 |]; [| 18; 10; 2 |];
    ]

(* The forward kernel reads a transposed copy of the weights that is
   refreshed only after they change: single-example inference between
   set_params and sgd_step calls, in every order, must see the weights
   of the moment, as the oracle does *)
let prop_mlp_transpose_follows_weights =
  QCheck.Test.make ~name:"mlp inference sees every weight change" ~count:100
    QCheck.(pair (int_range 1 100_000) (int_range 2 4))
    (fun (seed, depth) ->
      let r = Icoe_util.Rng.create seed in
      let sizes = random_sizes r ~depth ~max_width:12 in
      let classes = sizes.(depth - 1) in
      let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
      let agree () =
        let x = random_input r sizes in
        same (Mlp.predict_proba m x) (Ref_mlp.predict_proba o x)
      in
      let step () =
        let x = random_input r sizes and label = Icoe_util.Rng.int r classes in
        ignore (Mlp.backward m x ~label);
        ignore (Ref_mlp.backward o x ~label);
        Mlp.sgd_step ~momentum:0.9 m ~lr:0.1 ~batch:1;
        Ref_mlp.sgd_step ~momentum:0.9 o ~lr:0.1 ~batch:1
      in
      let set () =
        let p =
          Array.init (Mlp.num_params m) (fun _ -> Icoe_util.Rng.uniform r (-1.0) 1.0)
        in
        Mlp.set_params m p;
        Ref_mlp.set_params o p
      in
      let ok = ref (agree ()) in
      for _ = 1 to 6 do
        (match Icoe_util.Rng.int r 3 with
        | 0 -> step ()
        | 1 -> set ()
        | _ ->
            set ();
            step ());
        ok := !ok && agree () && agree ()
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

(* The shapes the harnesses train (fig3/kavg learners, the Table 3
   combiners), plus wide ones whose widths (>= 16, and 1, 2 or 3 past a
   multiple of 4) run the kernels' 16-, 8- and 4-wide blocks and 1-,
   2- and 3-wide scalar tails in every stage, at batch sizes that leave
   every remainder of the 2-, 4- and 8-row groups, on both sides of the
   32-example chunk. *)
let test_mlp_harness_shapes () =
  List.iter
    (fun sizes ->
      List.iter
        (fun batch ->
          let seed = (batch * 31) + Array.length sizes in
          let r = Icoe_util.Rng.create seed in
          let m = Mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
          let o = Ref_mlp.create ~rng:(Icoe_util.Rng.create seed) sizes in
          let name what =
            Fmt.str "%a batch %d: %s" Fmt.(array ~sep:semi int) sizes batch what
          in
          for _ = 1 to 2 do
            let xs, ls = random_batch r sizes batch in
            let lm = Mlp.train_batch ~momentum:0.9 m ~lr:0.1 xs ls in
            let lo = Ref_mlp.train_batch ~momentum:0.9 o ~lr:0.1 xs ls in
            Alcotest.(check bool) (name "loss") true (same [| lm |] [| lo |])
          done;
          let x = random_input r sizes in
          Alcotest.(check bool) (name "params") true
            (same (Mlp.get_params m) (Ref_mlp.get_params o));
          Alcotest.(check bool) (name "probs") true
            (same (Mlp.predict_proba m x) (Ref_mlp.predict_proba o x)))
        [ 1; 3; 31; 32; 33 ])
    [
      [| 10; 8 |]; [| 24; 8 |]; [| 24; 16; 8 |]; [| 30; 12; 8 |];
      [| 12; 16; 4 |]; [| 40; 36; 9 |]; [| 41; 37; 9 |]; [| 42; 38; 11 |];
      [| 43; 39; 7 |]; [| 17; 18; 13 |];
    ]

(* Softmax rows where z - max is +-0 beyond the maximum itself: ties,
   all-equal rows, a -0 maximum beside +0 (the fold keeps the first, so
   +0 - -0 is +0), -inf entries. The kernel takes exp(+-0) as 1.0
   without calling exp; the oracle calls it. A one-layer net with zero
   weights and input -1 has logits b + 0 * -1 = b exactly, -0 included. *)
let test_mlp_softmax_rows () =
  List.iter
    (fun z ->
      let c = Array.length z in
      let params = Array.append (Array.make c 0.0) z in
      let m = Mlp.create ~rng:(rng ()) [| 1; c |] in
      let o = Ref_mlp.create ~rng:(rng ()) [| 1; c |] in
      Mlp.set_params m params;
      Ref_mlp.set_params o params;
      let name = Fmt.str "%a" Fmt.(array ~sep:semi float) z in
      let expect = Ref_mlp.predict_proba o [| -1.0 |] in
      Alcotest.(check bool) (name ^ ": oracle logits are z") true
        (same expect (Ref_mlp.softmax z));
      Alcotest.(check bool) (name ^ ": one row") true
        (same (Mlp.predict_proba m [| -1.0 |]) expect);
      (* three rows in one kernel call *)
      let loss = ref 0.0 in
      for _ = 1 to 3 do
        loss := !loss -. log (Float.max 1e-12 expect.(c - 1))
      done;
      Alcotest.(check bool) (name ^ ": three rows") true
        (same
           [|
             Mlp.eval_loss m (Array.make 3 [| -1.0 |]) (Array.make 3 (c - 1));
           |]
           [| !loss /. 3.0 |]))
    [
      [| 1.0; 3.0; 3.0; -2.0 |];
      [| 3.0; 1.0; -2.0; 3.0; 3.0 |];
      [| 0.5; 0.5; 0.5; 0.5; 0.5; 0.5; 0.5 |];
      [| -0.0; -1.0; 0.0; -3.0 |];
      [| 0.0; -0.0; -2.0 |];
      [| -0.0; -0.0 |];
      [| Float.neg_infinity; 0.0; Float.neg_infinity; -0.0 |];
      [| 2.5 |];
    ]

(* A contraction canary. w*x = 1 + 2^-29 + 2^-60 exactly, so b + w*x is
   0.0 when the product is rounded first, as OCaml does, and 2^-60 when a
   fused multiply-add keeps it. 31 hidden units (a 16-, an 8- and a
   4-wide block and a scalar tail) feed one logit with weight 2^60: any
   fused unit turns that logit from 0.0 into at least 1.0. On an AVX2
   host this checks the AVX2 build; test/baseline checks the other. *)
let test_mlp_no_contraction () =
  let w = 1.0 +. ldexp 1.0 (-30) and b = -.(1.0 +. ldexp 1.0 (-29)) in
  let x = w in
  Alcotest.(check bool) "the canary separates fused from unfused" true
    (b +. (w *. x) = 0.0 && Float.fma w x b <> 0.0);
  let hidden = 31 in
  let m = Mlp.create ~rng:(rng ()) [| 1; hidden; 2 |] in
  Mlp.set_params m
    (Array.concat
       [
         Array.make hidden w; Array.make hidden b;
         Array.make hidden (ldexp 1.0 60); Array.make hidden 0.0;
         [| 0.0; 0.0 |];
       ]);
  (* the OCaml expressions: every hidden unit tanh (b + w*x) *)
  let h = tanh (b +. (w *. x)) in
  let z0 = ref 0.0 in
  for _ = 1 to hidden do
    z0 := !z0 +. (ldexp 1.0 60 *. h)
  done;
  let expect = Ref_mlp.softmax [| !z0; 0.0 |] in
  Alcotest.(check bool) "one example, bit for bit" true
    (same (Mlp.predict_proba m [| x |]) expect);
  (* three examples: a 2-row group and a single row in every block *)
  let loss = ref 0.0 in
  for _ = 1 to 3 do
    loss := !loss -. log expect.(0)
  done;
  Alcotest.(check bool) "a batch, bit for bit" true
    (same
       [| Mlp.eval_loss m [| [| x |]; [| x |]; [| x |] |] [| 0; 0; 0 |] |]
       [| !loss /. 3.0 |])

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
          QCheck_alcotest.to_alcotest prop_mlp_transpose_follows_weights;
          QCheck_alcotest.to_alcotest prop_mlp_step_is_train_batch;
          Alcotest.test_case "gradient pairs match the oracle" `Quick
            test_mlp_gradient_pairs;
          Alcotest.test_case "harness shapes match the oracle" `Quick
            test_mlp_harness_shapes;
          Alcotest.test_case "softmax rows with +-0 exponents" `Quick
            test_mlp_softmax_rows;
          Alcotest.test_case "no fused multiply-add" `Quick
            test_mlp_no_contraction;
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

(** Dense multi-layer perceptron with manual backprop — the neural-network
    substrate for the distributed-training studies and the Table 3
    ensemble combiners. Deliberately simple: tanh hidden layers, softmax
    cross-entropy output, plain SGD with optional momentum.

    Storage is flat: each layer's weights, gradients and momentum are one
    row-major [nout * nin] {!Icoe_util.Fbuf.t}, and every activation and
    delta buffer is allocated once, at {!create}. The kernels are plain
    loops over unchecked [Fbuf] accesses with local accumulators, so a
    training step allocates nothing; the public entry points validate
    sizes and labels before any kernel runs.

    Exact-order contract: every floating-point operation happens in the
    order of the straightforward [float array array] formulation (kept as
    an oracle in the tests), so reports are bit-identical to it:
    - a pre-activation sums the bias first, then inputs in ascending
      order (several output rows may be computed at once, each with its
      own accumulator);
    - softmax folds [max] from [neg_infinity], then sums the [exp]s in
      ascending order from [0.0] ({!Icoe_util.Stats.sum} order);
    - gradients accumulate across examples in example order, and a
      back-propagated delta sums over output units in ascending order
      from [0.0];
    - the SGD update keeps its expressions, [weight_decay *. w] included. *)

module Fbuf = Icoe_util.Fbuf

type layer = {
  nin : int;
  nout : int;
  w : Fbuf.t;  (** nout x nin, row-major *)
  b : Fbuf.t;
  gw : Fbuf.t;  (** accumulated gradients *)
  gb : Fbuf.t;
  mw : Fbuf.t;  (** momentum buffers *)
  mb : Fbuf.t;
  src : Fbuf.t;  (** this layer's input: the previous layer's [act] *)
  act : Fbuf.t;  (** output: tanh for hidden layers, logits for the last *)
  delta : Fbuf.t;  (** loss gradient at the pre-activation *)
}

type t = {
  sizes : int array;  (** [in; hidden...; out] *)
  layers : layer array;
  input : Fbuf.t;  (** the current example *)
  probs : Fbuf.t;  (** softmax of the last layer's logits *)
  loss : Fbuf.t;  (** one slot: the last example's loss, read unboxed *)
}

let sizes t = Array.copy t.sizes

(* every buffer zeroed; [init_w] fills each weight matrix *)
let alloc sizes ~init_w =
  if Array.length sizes < 2 then
    invalid_arg "Mlp.create: sizes needs an input and an output width";
  Array.iter
    (fun n ->
      if n < 1 then invalid_arg (Printf.sprintf "Mlp.create: layer width %d < 1" n))
    sizes;
  let sizes = Array.copy sizes in
  let nl = Array.length sizes - 1 in
  let input = Fbuf.create sizes.(0) in
  let src = ref input in
  let layers =
    Array.init nl (fun l ->
        let nin = sizes.(l) and nout = sizes.(l + 1) in
        let w = Fbuf.create (nout * nin) in
        init_w l w;
        let lay =
          {
            nin; nout; w;
            b = Fbuf.create nout;
            gw = Fbuf.create (nout * nin);
            gb = Fbuf.create nout;
            mw = Fbuf.create (nout * nin);
            mb = Fbuf.create nout;
            src = !src;
            act = Fbuf.create nout;
            delta = Fbuf.create nout;
          }
        in
        src := lay.act;
        lay)
  in
  {
    sizes; layers; input;
    probs = Fbuf.create sizes.(nl);
    loss = Fbuf.create 1;
  }

let create ~(rng : Icoe_util.Rng.t) sizes =
  (* He-scaled Gaussians, drawn row by row, inputs ascending *)
  alloc sizes ~init_w:(fun l w ->
      let scale = sqrt (2.0 /. float_of_int sizes.(l)) in
      for k = 0 to Fbuf.length w - 1 do
        Fbuf.set w k (scale *. Icoe_util.Rng.gaussian rng)
      done)

(** Parameters only: the copy's gradients and momentum start at zero. *)
let clone t =
  let c = alloc t.sizes ~init_w:(fun l w -> Fbuf.blit ~src:t.layers.(l).w ~dst:w) in
  Array.iteri (fun l lay -> Fbuf.blit ~src:lay.b ~dst:c.layers.(l).b) t.layers;
  c

let num_params t =
  Array.fold_left (fun acc l -> acc + (l.nout * (1 + l.nin))) 0 t.layers

(* layer-major, each layer's weight rows then its biases *)
let flatten t pick =
  Array.concat
    (List.concat_map
       (fun l ->
         let w, b = pick l in
         [ Fbuf.to_array w; Fbuf.to_array b ])
       (Array.to_list t.layers))

(** Flatten / restore parameters (for averaging in KAVG and ASGD). *)
let get_params t = flatten t (fun l -> (l.w, l.b))

let get_grads t = flatten t (fun l -> (l.gw, l.gb))

let set_params t buf =
  if Array.length buf <> num_params t then
    invalid_arg
      (Printf.sprintf "Mlp.set_params: %d values for %d parameters"
         (Array.length buf) (num_params t));
  let k = ref 0 in
  Array.iter
    (fun l ->
      for j = 0 to Fbuf.length l.w - 1 do
        Fbuf.set l.w j buf.(!k + j)
      done;
      k := !k + Fbuf.length l.w;
      for j = 0 to l.nout - 1 do
        Fbuf.set l.b j buf.(!k + j)
      done;
      k := !k + l.nout)
    t.layers

(* [Stdlib.max] on floats, without the polymorphic compare call *)
let fmax (a : float) b = if a >= b then a else b

(* [dst] may be [src] *)
let softmax_into ~src ~dst =
  let n = Fbuf.length src in
  let mx = ref neg_infinity in
  for i = 0 to n - 1 do
    mx := fmax !mx (Fbuf.get src i)
  done;
  let mx = !mx in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (Fbuf.get src i -. mx) in
    Fbuf.set dst i e;
    s := !s +. e
  done;
  let s = !s in
  for i = 0 to n - 1 do
    Fbuf.set dst i (Fbuf.get dst i /. s)
  done

let softmax z =
  let buf = Fbuf.of_array z in
  softmax_into ~src:buf ~dst:buf;
  Fbuf.to_array buf

(* Output rows [lo, hi) of layer [lay]: dst[o] = f (b[o] + sum_i w[o,i]
   src[i]), inputs ascending, f = tanh on hidden layers. Four rows at a
   time, each with its own accumulator, to break the add-latency chain.
   Unchecked: callers own the bounds. *)
let rows lay ~hidden ~src ~dst ~lo ~hi =
  let nin = lay.nin and w = lay.w and b = lay.b in
  let o = ref lo in
  while !o + 3 < hi do
    let o0 = !o in
    let r0 = o0 * nin in
    let r1 = r0 + nin in
    let r2 = r1 + nin in
    let r3 = r2 + nin in
    let s0 = ref (Fbuf.get b o0) and s1 = ref (Fbuf.get b (o0 + 1))
    and s2 = ref (Fbuf.get b (o0 + 2)) and s3 = ref (Fbuf.get b (o0 + 3)) in
    for i = 0 to nin - 1 do
      let v = Fbuf.get src i in
      s0 := !s0 +. (Fbuf.get w (r0 + i) *. v);
      s1 := !s1 +. (Fbuf.get w (r1 + i) *. v);
      s2 := !s2 +. (Fbuf.get w (r2 + i) *. v);
      s3 := !s3 +. (Fbuf.get w (r3 + i) *. v)
    done;
    if hidden then begin
      Fbuf.set dst o0 (tanh !s0);
      Fbuf.set dst (o0 + 1) (tanh !s1);
      Fbuf.set dst (o0 + 2) (tanh !s2);
      Fbuf.set dst (o0 + 3) (tanh !s3)
    end
    else begin
      Fbuf.set dst o0 !s0;
      Fbuf.set dst (o0 + 1) !s1;
      Fbuf.set dst (o0 + 2) !s2;
      Fbuf.set dst (o0 + 3) !s3
    end;
    o := o0 + 4
  done;
  for o = !o to hi - 1 do
    let r = o * nin in
    let s = ref (Fbuf.get b o) in
    for i = 0 to nin - 1 do
      s := !s +. (Fbuf.get w (r + i) *. Fbuf.get src i)
    done;
    Fbuf.set dst o (if hidden then tanh !s else !s)
  done

let forward_rows t ~layer ~src ~dst ~lo ~hi =
  let nl = Array.length t.layers in
  if layer < 0 || layer >= nl then
    invalid_arg (Printf.sprintf "Mlp.forward_rows: layer %d of %d" layer nl);
  let lay = t.layers.(layer) in
  if Fbuf.length src <> lay.nin || Fbuf.length dst <> lay.nout then
    invalid_arg
      (Printf.sprintf "Mlp.forward_rows: src/dst of length %d/%d, layer is %d -> %d"
         (Fbuf.length src) (Fbuf.length dst) lay.nin lay.nout);
  if lo < 0 || hi > lay.nout || lo > hi then
    invalid_arg
      (Printf.sprintf "Mlp.forward_rows: rows [%d, %d) of %d" lo hi lay.nout);
  rows lay ~hidden:(layer < nl - 1) ~src ~dst ~lo ~hi

let check_input t fn x =
  if Array.length x <> t.sizes.(0) then
    invalid_arg
      (Printf.sprintf "Mlp.%s: input of length %d, expected %d" fn
         (Array.length x) t.sizes.(0))

(* forward pass of a checked [x] into the activation buffers, then the
   class probabilities into [t.probs] *)
let forward t x =
  Fbuf.blit_from_array x t.input;
  let nl = Array.length t.layers in
  for l = 0 to nl - 1 do
    let lay = t.layers.(l) in
    rows lay ~hidden:(l < nl - 1) ~src:lay.src ~dst:lay.act ~lo:0 ~hi:lay.nout
  done;
  softmax_into ~src:t.layers.(nl - 1).act ~dst:t.probs

(** Class probabilities for input [x]. *)
let predict_proba t x =
  check_input t "predict_proba" x;
  forward t x;
  let p = Array.create_float (Fbuf.length t.probs) in
  Fbuf.blit_to_array t.probs p;
  p

let argmax_probs t =
  let p = t.probs in
  let best = ref 0 in
  for i = 1 to Fbuf.length p - 1 do
    if Fbuf.get p i > Fbuf.get p !best then best := i
  done;
  !best

let predict t x =
  check_input t "predict" x;
  forward t x;
  argmax_probs t

let zero_grads t =
  Array.iter
    (fun l ->
      Fbuf.fill l.gw 0.0;
      Fbuf.fill l.gb 0.0)
    t.layers

let copy_grads ~src ~dst =
  if src.sizes <> dst.sizes then
    invalid_arg "Mlp.copy_grads: models of different shapes";
  Array.iteri
    (fun l s ->
      let d = dst.layers.(l) in
      Fbuf.blit ~src:s.gw ~dst:d.gw;
      Fbuf.blit ~src:s.gb ~dst:d.gb)
    src.layers

let reset t params =
  set_params t params;
  zero_grads t;
  Array.iter
    (fun l ->
      Fbuf.fill l.mw 0.0;
      Fbuf.fill l.mb 0.0)
    t.layers

(* gb[o] += d[o] and gw[o,i] += d[o] a[i] *)
let grads lay =
  let nin = lay.nin and a = lay.src and delta = lay.delta in
  let gw = lay.gw and gb = lay.gb in
  for o = 0 to lay.nout - 1 do
    let d = Fbuf.get delta o and r = o * nin in
    Fbuf.set gb o (Fbuf.get gb o +. d);
    for i = 0 to nin - 1 do
      Fbuf.set gw (r + i) (Fbuf.get gw (r + i) +. (d *. Fbuf.get a i))
    done
  done

(* The delta of the layer below, through tanh: nd[i] sums d[o] w[o,i]
   over ascending o from 0.0. *)
let propagate lay ~nd =
  let nin = lay.nin and a = lay.src and delta = lay.delta and w = lay.w in
  Fbuf.fill nd 0.0;
  for o = 0 to lay.nout - 1 do
    let d = Fbuf.get delta o and r = o * nin in
    for i = 0 to nin - 1 do
      Fbuf.set nd i (Fbuf.get nd i +. (d *. Fbuf.get w (r + i)))
    done
  done;
  for i = 0 to nin - 1 do
    let ai = Fbuf.get a i in
    Fbuf.set nd i (Fbuf.get nd i *. (1.0 -. (ai *. ai)))
  done

(* Accumulate the gradients of one checked example into gw/gb; the loss
   goes to [t.loss] so the caller reads it unboxed. *)
let backprop t x label =
  forward t x;
  let nl = Array.length t.layers in
  let top = t.layers.(nl - 1) in
  Fbuf.set t.loss 0 (-.log (fmax 1e-12 (Fbuf.get t.probs label)));
  (* output delta: probs - onehot (p -. 0.0 is p exactly) *)
  Fbuf.blit ~src:t.probs ~dst:top.delta;
  Fbuf.set top.delta label (Fbuf.get t.probs label -. 1.0);
  for l = nl - 1 downto 0 do
    let lay = t.layers.(l) in
    grads lay;
    if l > 0 then propagate lay ~nd:t.layers.(l - 1).delta
  done

let check_label t fn label =
  let classes = t.sizes.(Array.length t.sizes - 1) in
  if label < 0 || label >= classes then
    invalid_arg
      (Printf.sprintf "Mlp.%s: label %d outside [0, %d)" fn label classes)

(** Accumulate gradients of softmax cross-entropy for one example;
    returns the loss. *)
let backward t x ~label =
  check_input t "backward" x;
  check_label t "backward" label;
  backprop t x label;
  Fbuf.get t.loss 0

(** Apply accumulated gradients (scaled by 1/batch) with learning rate and
    momentum, then clear them. *)
let sgd_step ?(momentum = 0.0) ?(weight_decay = 0.0) t ~lr ~batch =
  let scale = 1.0 /. float_of_int (max 1 batch) in
  Array.iter
    (fun l ->
      let w = l.w and gw = l.gw and mw = l.mw in
      for k = 0 to Fbuf.length w - 1 do
        let g = (Fbuf.get gw k *. scale) +. (weight_decay *. Fbuf.get w k) in
        Fbuf.set mw k ((momentum *. Fbuf.get mw k) -. (lr *. g));
        Fbuf.set w k (Fbuf.get w k +. Fbuf.get mw k)
      done;
      let b = l.b and gb = l.gb and mb = l.mb in
      for o = 0 to l.nout - 1 do
        let g = Fbuf.get gb o *. scale in
        Fbuf.set mb o ((momentum *. Fbuf.get mb o) -. (lr *. g));
        Fbuf.set b o (Fbuf.get b o +. Fbuf.get mb o)
      done)
    t.layers;
  zero_grads t

(** One mini-batch step; returns mean loss. *)
let train_batch ?(momentum = 0.0) t ~lr xs labels =
  let n = Array.length xs in
  if Array.length labels <> n then
    invalid_arg
      (Printf.sprintf "Mlp.train_batch: %d inputs but %d labels" n
         (Array.length labels));
  for k = 0 to n - 1 do
    check_input t "train_batch" xs.(k);
    check_label t "train_batch" labels.(k)
  done;
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    backprop t xs.(k) labels.(k);
    total := !total +. Fbuf.get t.loss 0
  done;
  sgd_step ~momentum t ~lr ~batch:n;
  !total /. float_of_int n

(** Classification accuracy over a dataset. *)
let accuracy t xs labels =
  let correct = ref 0 in
  Array.iteri (fun k x -> if predict t x = labels.(k) then incr correct) xs;
  float_of_int !correct /. float_of_int (Array.length xs)

(** Mean loss without updating. *)
let eval_loss t xs labels =
  let total = ref 0.0 in
  for k = 0 to Array.length xs - 1 do
    let x = xs.(k) in
    check_input t "eval_loss" x;
    check_label t "eval_loss" labels.(k);
    forward t x;
    total := !total -. log (fmax 1e-12 (Fbuf.get t.probs labels.(k)))
  done;
  !total /. float_of_int (Array.length xs)

(** Dense multi-layer perceptron with manual backprop — the neural-network
    substrate for the distributed-training studies and the Table 3
    ensemble combiners. Deliberately simple: tanh hidden layers, softmax
    cross-entropy output, plain SGD with optional momentum.

    Storage is flat: each layer's weights, gradients and momentum are one
    row-major [nout * nin] {!Icoe_util.Fbuf.t}. A model also owns a batch
    workspace: input, activation and delta rows, one row per example, for
    up to [chunk] examples. A batch goes through the network a chunk at a
    time, layer by layer, so a chunk's rows stay in cache between stages.
    The workspace grows when a larger chunk arrives and is reused
    afterwards, so a steady-state training step allocates nothing; the
    public entry points validate sizes and labels before any kernel runs.
    A {!batch} holds a training set packed row-major once; {!step} reads
    each chunk's rows from it in place, where {!train_batch} first copies
    them from its [float array array] into the workspace input rows.

    One kernel per stage, each over a whole chunk, in mlp_stubs.c. They
    compute on 4-lane double vectors, built twice on x86-64 (baseline
    and AVX2, picked once from the CPU at load time), in blocks of 8
    accumulators that are 16, 8 or 4 values wide, with scalar tails:
    - forward: lanes over output rows, from a transposed copy of the
      weights ([wt]), refreshed by the first forward after the weights
      change; 2, 4 or 8 examples at a time. It also runs the hidden
      layers' tanh and serves single-example inference; a fourth stub
      writes the softmax rows;
    - gradient: lanes over inputs, 2, 4 or 8 output units at a time;
      a last pair of inputs runs as one 2-lane vector;
    - propagation: lanes over inputs, 2, 4 or 8 examples at a time.
    {!backward} is the batch path with one example.

    Exact-order contract: every floating-point operation happens in the
    order of the straightforward per-example [float array array]
    formulation (kept as an oracle in the tests), so reports are
    bit-identical to it. Each lane is one chain of that formulation;
    lanes and blocks only decide which independent chains run side by
    side, no chain is split or reordered, and the C file is built
    without contraction into fused multiply-adds:
    - a pre-activation sums the bias first, then inputs in ascending
      order;
    - softmax folds [max] from [neg_infinity], then sums the [exp]s in
      ascending order from [0.0] ({!Icoe_util.Stats.sum} order; an
      exponent of +-0 is taken as exactly 1.0, which is what [exp]
      returns), and the batch loss, where one is returned, sums the
      examples in order from [0.0];
    - a gradient entry starts from its accumulated value and adds one
      product per example in example order (the per-example
      load/add/store, kept in a register through a chunk and stored
      between chunks, which rounds nothing);
    - a back-propagated delta sums over output units in ascending order
      from [0.0], then takes the tanh derivative;
    - the SGD update keeps its expressions, [weight_decay *. w] included. *)

module Fbuf = Icoe_util.Fbuf

type layer = {
  nin : int;
  nout : int;
  w : Fbuf.t;  (** nout x nin, row-major *)
  wt : Fbuf.t;  (** nin x nout: [w] transposed while [wt_stale] is false *)
  b : Fbuf.t;
  gw : Fbuf.t;  (** accumulated gradients *)
  gb : Fbuf.t;
  mw : Fbuf.t;  (** momentum buffers *)
  mb : Fbuf.t;
}

(* Examples go through the network [chunk] at a time, so a workspace
   holds at most [chunk] rows and a chunk's activations and deltas stay
   in cache from one stage to the next. *)
let chunk = 32

(* [rows] examples' worth of every per-example buffer, row-major with one
   row per example; a chunk of c examples uses the first c rows *)
type workspace = {
  rows : int;
  input : Fbuf.t;  (** rows x in *)
  act : Fbuf.t array;
      (** per layer, rows x nout: tanh for hidden layers, logits for the
          last *)
  delta : Fbuf.t array;
      (** per layer, rows x nout: the loss gradient at the pre-activation;
          the last layer's doubles as the softmax output *)
}

type t = {
  sizes : int array;  (** [in; hidden...; out] *)
  layers : layer array;
  mutable ws : workspace;
  one : float array array;
      (** one slot: a single example as a batch, emptied after use *)
  label : int array;  (** one slot: {!backward}'s label as a batch *)
  loss : Fbuf.t;
      (** two slots, read unboxed: the batch's summed loss, and the last
          example's loss *)
  mutable wt_stale : bool;
      (** the weights changed since [wt] was last transposed: set by every
          write to [w] (create, {!set_params}, {!sgd_step}) *)
}

let workspace sizes rows =
  let nl = Array.length sizes - 1 in
  {
    rows;
    input = Fbuf.create (rows * sizes.(0));
    act = Array.init nl (fun l -> Fbuf.create (rows * sizes.(l + 1)));
    delta = Array.init nl (fun l -> Fbuf.create (rows * sizes.(l + 1)));
  }

(* room for [n] examples; the rows a chunk reads are always written
   first, so a grown workspace needs no copy *)
let reserve t n = if n > t.ws.rows then t.ws <- workspace t.sizes n

(* every buffer zeroed; [init_w] fills each weight matrix *)
let alloc sizes ~init_w =
  if Array.length sizes < 2 then
    invalid_arg "Mlp.create: sizes needs an input and an output width";
  Array.iter
    (fun n ->
      if n < 1 then invalid_arg (Printf.sprintf "Mlp.create: layer width %d < 1" n))
    sizes;
  let sizes = Array.copy sizes in
  let layers =
    Array.init (Array.length sizes - 1) (fun l ->
        let nin = sizes.(l) and nout = sizes.(l + 1) in
        let w = Fbuf.create (nout * nin) in
        init_w l w;
        {
          nin; nout; w;
          wt = Fbuf.create (nin * nout);
          b = Fbuf.create nout;
          gw = Fbuf.create (nout * nin);
          gb = Fbuf.create nout;
          mw = Fbuf.create (nout * nin);
          mb = Fbuf.create nout;
        })
  in
  {
    sizes; layers;
    ws = workspace sizes 1;
    one = [| [||] |];
    label = [| 0 |];
    loss = Fbuf.create 2;
    wt_stale = true;
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

(* [dst] <- layer-major, each layer's weight rows then its biases *)
let flatten_into t dst pick =
  let k = ref 0 in
  Array.iter
    (fun l ->
      let w, b = pick l in
      for j = 0 to Fbuf.length w - 1 do
        Array.unsafe_set dst (!k + j) (Fbuf.get w j)
      done;
      k := !k + Fbuf.length w;
      for j = 0 to l.nout - 1 do
        Array.unsafe_set dst (!k + j) (Fbuf.get b j)
      done;
      k := !k + l.nout)
    t.layers

let flatten t pick =
  let dst = Array.create_float (num_params t) in
  flatten_into t dst pick;
  dst

let params l = (l.w, l.b)

let get_params_into t dst =
  if Array.length dst <> num_params t then
    invalid_arg
      (Printf.sprintf "Mlp.get_params_into: %d slots for %d parameters"
         (Array.length dst) (num_params t));
  flatten_into t dst params

(** Flatten / restore parameters (for averaging in KAVG and ASGD). *)
let get_params t = flatten t params

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
    t.layers;
  t.wt_stale <- true

(* [Stdlib.max] on floats, without the polymorphic compare call *)
let fmax (a : float) b = if a >= b then a else b

(* The kernels, in mlp_stubs.c. Each works on the first [n] rows of
   row-major buffers; sizes are untagged, bounds are the caller's. *)

(* [transpose_kernel w wt nin nout]: wt[i,o] = w[o,i] *)
external transpose_kernel :
  Fbuf.t -> Fbuf.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "mlp_transpose_byte" "mlp_transpose"
[@@noalloc]

(* [forward_kernel w b wt src k0 dst nin nout n hidden]: dst[k,o] =
   f (b[o] + sum_i w[o,i] src[k0 + k,i]), inputs ascending, f = tanh
   when [hidden] is 1; [wt] is the transpose of [w] *)
external forward_kernel :
  Fbuf.t -> Fbuf.t -> Fbuf.t -> Fbuf.t -> (int[@untagged]) -> Fbuf.t ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "mlp_forward_byte" "mlp_forward"
[@@noalloc]

(* [softmax_kernel src dst n c]: the softmax of each [c]-wide row of
   [src] into [dst] *)
external softmax_kernel :
  Fbuf.t -> Fbuf.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "mlp_softmax_byte" "mlp_softmax"
[@@noalloc]

(* [grads_kernel gw gb a k0 d nin nout n]: gb[o] += sum_k d[k,o] and
   gw[o,i] += sum_k d[k,o] a[k0 + k,i], examples in order *)
external grads_kernel :
  Fbuf.t -> Fbuf.t -> Fbuf.t -> (int[@untagged]) -> Fbuf.t ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "mlp_grads_byte" "mlp_grads"
[@@noalloc]

(* [propagate_kernel w a d nd nin nout n]: nd[k,i] = (sum_o d[k,o]
   w[o,i], ascending from 0.0) * (1 - a[k,i]^2) *)
external propagate_kernel :
  Fbuf.t -> Fbuf.t -> Fbuf.t -> Fbuf.t ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "mlp_propagate_byte" "mlp_propagate"
[@@noalloc]

let check_input t fn x =
  if Array.length x <> t.sizes.(0) then
    invalid_arg
      (Printf.sprintf "Mlp.%s: input of length %d, expected %d" fn
         (Array.length x) t.sizes.(0))

let check_label t fn label =
  let classes = t.sizes.(Array.length t.sizes - 1) in
  if label < 0 || label >= classes then
    invalid_arg
      (Printf.sprintf "Mlp.%s: label %d outside [0, %d)" fn label classes)

(* [xs.(k0)] .. [xs.(k0 + c - 1)], checked, into the first [c] workspace
   input rows *)
let load t xs ~k0 ~c =
  reserve t c;
  let nin = t.sizes.(0) and input = t.ws.input in
  for k = 0 to c - 1 do
    let x = xs.(k0 + k) and off = k * nin in
    for i = 0 to nin - 1 do
      Fbuf.set input (off + i) (Array.unsafe_get x i)
    done
  done

(* Layer [l]'s input rows, and the row its chunk starts at: layer 0
   reads the chunk's inputs from rows [x0, x0 + c) of [x] (the workspace
   input rows from 0, or a packed {!batch}), every other layer the
   workspace activations below it from 0. *)
let src_of ws x l = if l = 0 then x else ws.act.(l - 1)
let row_of x0 l = if l = 0 then x0 else 0

(* [c] examples, rows [x0, x0 + c) of [x], through every layer, then
   their class probabilities into the top delta rows *)
let forward t x ~x0 ~c =
  let nl = Array.length t.layers and ws = t.ws in
  if t.wt_stale then begin
    Array.iter (fun l -> transpose_kernel l.w l.wt l.nin l.nout) t.layers;
    t.wt_stale <- false
  end;
  for l = 0 to nl - 1 do
    let lay = t.layers.(l) in
    forward_kernel lay.w lay.b lay.wt (src_of ws x l) (row_of x0 l) ws.act.(l)
      lay.nin lay.nout c
      (if l < nl - 1 then 1 else 0)
  done;
  softmax_kernel ws.act.(nl - 1) ws.delta.(nl - 1) c t.layers.(nl - 1).nout

let probs t = t.ws.delta.(Array.length t.layers - 1)
let classes t = t.sizes.(Array.length t.sizes - 1)

(* a checked [x] through the network as a batch of one *)
let forward1 t x =
  t.one.(0) <- x;
  load t t.one ~k0:0 ~c:1;
  t.one.(0) <- [||];
  forward t t.ws.input ~x0:0 ~c:1

(** Class probabilities for input [x]. *)
let predict_proba t x =
  check_input t "predict_proba" x;
  forward1 t x;
  let p = Array.create_float (classes t) in
  Fbuf.blit_to_array (probs t) p;
  p

(* argmax of loaded example [k]'s probabilities, first index on ties *)
let argmax_probs t k =
  let p = probs t and c = classes t in
  let off = k * c in
  let best = ref 0 in
  for i = 1 to c - 1 do
    if Fbuf.get p (off + i) > Fbuf.get p (off + !best) then best := i
  done;
  !best

let predict t x =
  check_input t "predict" x;
  forward1 t x;
  argmax_probs t 0

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

(* The chunk core of every training step. Accumulate the gradients of
   examples [k0, k0 + c), whose inputs are rows [x0, x0 + c) of [x] and
   whose checked labels are [labels.(k0)] on, into gw/gb. With [loss],
   their losses are added to [t.loss]'s sum in example order and the
   last one is kept beside it, both read unboxed by the callers. *)
let backprop t x ~x0 ~k0 ~c labels ~loss =
  forward t x ~x0 ~c;
  let nl = Array.length t.layers and ws = t.ws in
  let top = ws.delta.(nl - 1) and classes = classes t in
  let total = ref (Fbuf.get t.loss 0) and last = ref 0.0 in
  for k = 0 to c - 1 do
    let j = (k * classes) + labels.(k0 + k) in
    let p = Fbuf.get top j in
    if loss then begin
      last := -.log (fmax 1e-12 p);
      total := !total +. !last
    end;
    (* output delta: probs - onehot (p -. 0.0 is p exactly) *)
    Fbuf.set top j (p -. 1.0)
  done;
  if loss then begin
    Fbuf.set t.loss 0 !total;
    Fbuf.set t.loss 1 !last
  end;
  for l = nl - 1 downto 0 do
    let lay = t.layers.(l) and a = src_of ws x l in
    grads_kernel lay.gw lay.gb a (row_of x0 l) ws.delta.(l) lay.nin lay.nout c;
    (* layer 0's input is never propagated into, so [a] is the
       workspace activations here, read from row 0 *)
    if l > 0 then
      propagate_kernel lay.w a ws.delta.(l) ws.delta.(l - 1) lay.nin lay.nout c
  done

(* The gradients of a checked batch, [chunk] examples at a time, each
   chunk copied into the workspace input rows; every gradient entry
   still sees the examples in order. The summed loss ends in [t.loss]
   slot 0, the last example's in slot 1. *)
let accumulate t xs labels =
  let n = Array.length xs in
  Fbuf.set t.loss 0 0.0;
  let k0 = ref 0 in
  while !k0 < n do
    let c = min chunk (n - !k0) in
    load t xs ~k0:!k0 ~c;
    backprop t t.ws.input ~x0:0 ~k0:!k0 ~c labels ~loss:true;
    k0 := !k0 + c
  done

(** Accumulate gradients of softmax cross-entropy for one example;
    returns the loss. *)
let backward t x ~label =
  check_input t "backward" x;
  check_label t "backward" label;
  t.one.(0) <- x;
  t.label.(0) <- label;
  accumulate t t.one t.label;
  t.one.(0) <- [||];
  Fbuf.get t.loss 1

(* Apply accumulated gradients (scaled by 1/batch) with learning rate and
   momentum, then clear them. Labelled rather than optional, so that
   {!step} passes its arguments on without boxing an option. *)
let sgd t ~momentum ~weight_decay ~lr ~batch =
  let scale = 1.0 /. float_of_int (max 1 batch) in
  (* a loop, not [Array.iter]: a closure would box [scale] *)
  for l = 0 to Array.length t.layers - 1 do
    let l = t.layers.(l) in
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
    done
  done;
  t.wt_stale <- true;
  zero_grads t

let sgd_step ?(momentum = 0.0) ?(weight_decay = 0.0) t ~lr ~batch =
  sgd t ~momentum ~weight_decay ~lr ~batch

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
  accumulate t xs labels;
  sgd t ~momentum ~weight_decay:0.0 ~lr ~batch:n;
  Fbuf.get t.loss 0 /. float_of_int n

(* A training set packed once: [n] rows of [width] inputs, row-major,
   their labels, and the largest label, so that {!step} checks a model
   against it in O(1). *)
type batch = {
  n : int;
  width : int;
  top : int;
  xs : Fbuf.t;
  labels : int array;
}

let batch xs labels =
  let n = Array.length xs in
  if Array.length labels <> n then
    invalid_arg
      (Printf.sprintf "Mlp.batch: %d inputs but %d labels" n
         (Array.length labels));
  if n = 0 then invalid_arg "Mlp.batch: no examples";
  let width = Array.length xs.(0) in
  if width = 0 then invalid_arg "Mlp.batch: inputs of width 0";
  Array.iteri
    (fun k x ->
      if Array.length x <> width then
        invalid_arg
          (Printf.sprintf "Mlp.batch: input %d has length %d, input 0 has %d"
             k (Array.length x) width))
    xs;
  Array.iter
    (fun l ->
      if l < 0 then invalid_arg (Printf.sprintf "Mlp.batch: label %d < 0" l))
    labels;
  let packed = Fbuf.create (n * width) in
  Array.iteri
    (fun k x -> Array.iteri (fun i v -> Fbuf.set packed ((k * width) + i) v) x)
    xs;
  { n; width; top = Array.fold_left max 0 labels; xs = packed;
    labels = Array.copy labels }

(** {!train_batch} on a packed batch, without the loss: the chunks are
    read in place. *)
let step ~momentum t ~lr b =
  if b.width <> t.sizes.(0) then
    invalid_arg
      (Printf.sprintf "Mlp.step: inputs of width %d, expected %d" b.width
         t.sizes.(0));
  check_label t "step" b.top;
  reserve t (min chunk b.n);
  let k0 = ref 0 in
  while !k0 < b.n do
    let c = min chunk (b.n - !k0) in
    backprop t b.xs ~x0:!k0 ~k0:!k0 ~c b.labels ~loss:false;
    k0 := !k0 + c
  done;
  sgd t ~momentum ~weight_decay:0.0 ~lr ~batch:b.n

(** Classification accuracy over a dataset. *)
let accuracy t xs labels =
  let n = Array.length xs in
  Array.iter (check_input t "accuracy") xs;
  let correct = ref 0 and k0 = ref 0 in
  while !k0 < n do
    let c = min chunk (n - !k0) in
    load t xs ~k0:!k0 ~c;
    forward t t.ws.input ~x0:0 ~c;
    for k = 0 to c - 1 do
      if argmax_probs t k = labels.(!k0 + k) then incr correct
    done;
    k0 := !k0 + c
  done;
  float_of_int !correct /. float_of_int n

(** Mean loss without updating. *)
let eval_loss t xs labels =
  let n = Array.length xs in
  for k = 0 to n - 1 do
    check_input t "eval_loss" xs.(k);
    check_label t "eval_loss" labels.(k)
  done;
  let total = ref 0.0 and k0 = ref 0 in
  while !k0 < n do
    let c = min chunk (n - !k0) in
    load t xs ~k0:!k0 ~c;
    forward t t.ws.input ~x0:0 ~c;
    let p = probs t and classes = classes t in
    for k = 0 to c - 1 do
      let pk = Fbuf.get p ((k * classes) + labels.(!k0 + k)) in
      total := !total -. log (fmax 1e-12 pk)
    done;
    k0 := !k0 + c
  done;
  !total /. float_of_int n

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

    One kernel per stage, each over a whole chunk and register-blocked:
    the forward kernel computes 2 examples x 4 output rows at a time (it
    also serves single-example inference and {!forward_rows}), the
    gradient kernel 2 output units x 4 inputs, the propagation kernel
    2 examples x 4 inputs. {!backward} is the batch path with one
    example.

    Exact-order contract: every floating-point operation happens in the
    order of the straightforward per-example [float array array]
    formulation (kept as an oracle in the tests), so reports are
    bit-identical to it. Blocking only decides which independent chains
    run side by side; no chain is split or reordered:
    - a pre-activation sums the bias first, then inputs in ascending
      order;
    - softmax folds [max] from [neg_infinity], then sums the [exp]s in
      ascending order from [0.0] ({!Icoe_util.Stats.sum} order), and the
      batch loss sums the examples in order from [0.0];
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
}

let sizes t = Array.copy t.sizes

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

(* softmax of the [c] values at [off] in [src] into the same slots of
   [dst] ([dst] may be [src]) *)
let softmax_row ~src ~dst ~off ~c =
  let mx = ref neg_infinity in
  for i = off to off + c - 1 do
    mx := fmax !mx (Fbuf.get src i)
  done;
  let mx = !mx in
  let s = ref 0.0 in
  for i = off to off + c - 1 do
    let e = exp (Fbuf.get src i -. mx) in
    Fbuf.set dst i e;
    s := !s +. e
  done;
  let s = !s in
  for i = off to off + c - 1 do
    Fbuf.set dst i (Fbuf.get dst i /. s)
  done

let softmax z =
  let buf = Fbuf.of_array z in
  softmax_row ~src:buf ~dst:buf ~off:0 ~c:(Array.length z);
  Fbuf.to_array buf

(* One entry of each kernel, for the rows and columns the register
   blocks below do not cover. *)

(* dst[k,o] = b[o] + sum_i w[o,i] src[k,i], inputs ascending *)
let forward_entry lay ~src ~dst k o =
  let nin = lay.nin and r = o * lay.nin and x = k * lay.nin in
  let s = ref (Fbuf.get lay.b o) in
  for i = 0 to nin - 1 do
    s := !s +. (Fbuf.get lay.w (r + i) *. Fbuf.get src (x + i))
  done;
  Fbuf.set dst ((k * lay.nout) + o) !s

(* gw[o,i] += d[k,o] a[k,i] for k in [0, n), ascending *)
let grad_entry lay ~a ~d ~n o i =
  let j = (o * lay.nin) + i in
  let g = ref (Fbuf.get lay.gw j) and dk = ref o and ak = ref i in
  for _ = 1 to n do
    g := !g +. (Fbuf.get d !dk *. Fbuf.get a !ak);
    dk := !dk + lay.nout;
    ak := !ak + lay.nin
  done;
  Fbuf.set lay.gw j !g

(* nd[k,i] = (sum_o d[k,o] w[o,i], ascending from 0.0) * (1 - a[k,i]^2) *)
let delta_entry lay ~a ~d ~nd k i =
  let d0 = k * lay.nout and e = (k * lay.nin) + i in
  let s = ref 0.0 and wo = ref i in
  for o = 0 to lay.nout - 1 do
    s := !s +. (Fbuf.get d (d0 + o) *. Fbuf.get lay.w !wo);
    wo := !wo + lay.nin
  done;
  let ai = Fbuf.get a e in
  Fbuf.set nd e (!s *. (1.0 -. (ai *. ai)))

(* The forward kernel. Output rows [lo, hi) of layer [lay] for examples
   [0, n): dst[k,o] = f (b[o] + sum_i w[o,i] src[k,i]), inputs ascending,
   f = tanh on hidden layers; [src] is n x nin and [dst] n x nout,
   row-major. Blocks of 2 examples x 4 rows share their w and src loads,
   each (example, row) in its own accumulator; a lone example takes
   4 rows at a time. The sums are stored first and tanh is applied in a
   second pass, so no accumulator is live across a call and none is
   spilled in the loop. Unchecked: callers own the bounds. *)
let forward_kernel lay ~hidden ~src ~dst ~n ~lo ~hi =
  let nin = lay.nin and nout = lay.nout and w = lay.w and b = lay.b in
  let o = ref lo in
  while !o + 3 < hi do
    let o0 = !o in
    let r0 = o0 * nin in
    let r1 = r0 + nin in
    let r2 = r1 + nin in
    let r3 = r2 + nin in
    let b0 = Fbuf.get b o0 and b1 = Fbuf.get b (o0 + 1)
    and b2 = Fbuf.get b (o0 + 2) and b3 = Fbuf.get b (o0 + 3) in
    let k = ref 0 in
    while !k + 1 < n do
      let x0 = !k * nin in
      let x1 = x0 + nin in
      let s00 = ref b0 and s01 = ref b1 and s02 = ref b2 and s03 = ref b3 in
      let s10 = ref b0 and s11 = ref b1 and s12 = ref b2 and s13 = ref b3 in
      (* two inputs per pass: the second pair of loads reuses the first
         pair's offsets as displacements *)
      let i = ref 0 in
      while !i < nin do
        let a0 = x0 + !i and a1 = x1 + !i and c0 = r0 + !i and c1 = r1 + !i
        and c2 = r2 + !i and c3 = r3 + !i in
        let v0 = Fbuf.get src a0 and v1 = Fbuf.get src a1 in
        let w0 = Fbuf.get w c0 and w1 = Fbuf.get w c1
        and w2 = Fbuf.get w c2 and w3 = Fbuf.get w c3 in
        s00 := !s00 +. (w0 *. v0);
        s01 := !s01 +. (w1 *. v0);
        s02 := !s02 +. (w2 *. v0);
        s03 := !s03 +. (w3 *. v0);
        s10 := !s10 +. (w0 *. v1);
        s11 := !s11 +. (w1 *. v1);
        s12 := !s12 +. (w2 *. v1);
        s13 := !s13 +. (w3 *. v1);
        if !i + 1 < nin then begin
          let v0 = Fbuf.get src (a0 + 1) and v1 = Fbuf.get src (a1 + 1) in
          let w0 = Fbuf.get w (c0 + 1) and w1 = Fbuf.get w (c1 + 1)
          and w2 = Fbuf.get w (c2 + 1) and w3 = Fbuf.get w (c3 + 1) in
          s00 := !s00 +. (w0 *. v0);
          s01 := !s01 +. (w1 *. v0);
          s02 := !s02 +. (w2 *. v0);
          s03 := !s03 +. (w3 *. v0);
          s10 := !s10 +. (w0 *. v1);
          s11 := !s11 +. (w1 *. v1);
          s12 := !s12 +. (w2 *. v1);
          s13 := !s13 +. (w3 *. v1)
        end;
        i := !i + 2
      done;
      let d0 = (!k * nout) + o0 in
      let d1 = d0 + nout in
      Fbuf.set dst d0 !s00;
      Fbuf.set dst (d0 + 1) !s01;
      Fbuf.set dst (d0 + 2) !s02;
      Fbuf.set dst (d0 + 3) !s03;
      Fbuf.set dst d1 !s10;
      Fbuf.set dst (d1 + 1) !s11;
      Fbuf.set dst (d1 + 2) !s12;
      Fbuf.set dst (d1 + 3) !s13;
      k := !k + 2
    done;
    if !k < n then begin
      let x0 = !k * nin in
      let s0 = ref b0 and s1 = ref b1 and s2 = ref b2 and s3 = ref b3 in
      for i = 0 to nin - 1 do
        let v = Fbuf.get src (x0 + i) in
        s0 := !s0 +. (Fbuf.get w (r0 + i) *. v);
        s1 := !s1 +. (Fbuf.get w (r1 + i) *. v);
        s2 := !s2 +. (Fbuf.get w (r2 + i) *. v);
        s3 := !s3 +. (Fbuf.get w (r3 + i) *. v)
      done;
      let d0 = (!k * nout) + o0 in
      Fbuf.set dst d0 !s0;
      Fbuf.set dst (d0 + 1) !s1;
      Fbuf.set dst (d0 + 2) !s2;
      Fbuf.set dst (d0 + 3) !s3
    end;
    o := o0 + 4
  done;
  for o = !o to hi - 1 do
    for k = 0 to n - 1 do
      forward_entry lay ~src ~dst k o
    done
  done;
  if hidden then
    for k = 0 to n - 1 do
      let r = k * nout in
      for j = r + lo to r + hi - 1 do
        Fbuf.set dst j (tanh (Fbuf.get dst j))
      done
    done

(* The gradient kernel: gb[o] += sum_k d[k,o] and gw[o,i] += sum_k
   d[k,o] a[k,i], each entry's sum starting from its accumulated value
   and running over examples in order; [d] is n x nout and [a] n x nin.
   Blocks of 2 units x 4 inputs, each entry in its own accumulator, the
   example loop stepping two offsets. *)
let grads_kernel lay ~a ~d ~n =
  let nin = lay.nin and nout = lay.nout and gw = lay.gw and gb = lay.gb in
  for o = 0 to nout - 1 do
    let s = ref (Fbuf.get gb o) and dk = ref o in
    for _ = 1 to n do
      s := !s +. Fbuf.get d !dk;
      dk := !dk + nout
    done;
    Fbuf.set gb o !s
  done;
  let o = ref 0 in
  while !o + 1 < nout do
    let o0 = !o in
    let i = ref 0 in
    while !i + 3 < nin do
      let j0 = (o0 * nin) + !i in
      let j1 = j0 + nin in
      let g00 = ref (Fbuf.get gw j0) and g01 = ref (Fbuf.get gw (j0 + 1))
      and g02 = ref (Fbuf.get gw (j0 + 2))
      and g03 = ref (Fbuf.get gw (j0 + 3)) in
      let g10 = ref (Fbuf.get gw j1) and g11 = ref (Fbuf.get gw (j1 + 1))
      and g12 = ref (Fbuf.get gw (j1 + 2))
      and g13 = ref (Fbuf.get gw (j1 + 3)) in
      let dk = ref o0 and ak = ref !i in
      for _ = 1 to n do
        let d0 = Fbuf.get d !dk and d1 = Fbuf.get d (!dk + 1) in
        let a0 = Fbuf.get a !ak and a1 = Fbuf.get a (!ak + 1)
        and a2 = Fbuf.get a (!ak + 2) and a3 = Fbuf.get a (!ak + 3) in
        g00 := !g00 +. (d0 *. a0);
        g01 := !g01 +. (d0 *. a1);
        g02 := !g02 +. (d0 *. a2);
        g03 := !g03 +. (d0 *. a3);
        g10 := !g10 +. (d1 *. a0);
        g11 := !g11 +. (d1 *. a1);
        g12 := !g12 +. (d1 *. a2);
        g13 := !g13 +. (d1 *. a3);
        dk := !dk + nout;
        ak := !ak + nin
      done;
      Fbuf.set gw j0 !g00;
      Fbuf.set gw (j0 + 1) !g01;
      Fbuf.set gw (j0 + 2) !g02;
      Fbuf.set gw (j0 + 3) !g03;
      Fbuf.set gw j1 !g10;
      Fbuf.set gw (j1 + 1) !g11;
      Fbuf.set gw (j1 + 2) !g12;
      Fbuf.set gw (j1 + 3) !g13;
      i := !i + 4
    done;
    for i = !i to nin - 1 do
      grad_entry lay ~a ~d ~n o0 i;
      grad_entry lay ~a ~d ~n (o0 + 1) i
    done;
    o := o0 + 2
  done;
  if !o < nout then
    for i = 0 to nin - 1 do
      grad_entry lay ~a ~d ~n !o i
    done

(* The propagation kernel: the delta of the layer below through tanh,
   nd[k,i] = (sum_o d[k,o] w[o,i], ascending o from 0.0) * (1 - a[k,i]^2);
   [d] is n x nout, [a] (the layer's input) and [nd] n x nin. Blocks of
   2 examples x 4 inputs, each entry in its own accumulator; a lone
   example takes 4 inputs at a time. *)
let propagate_kernel lay ~a ~d ~nd ~n =
  let nin = lay.nin and nout = lay.nout and w = lay.w in
  let k = ref 0 in
  while !k + 1 < n do
    let e0 = !k * nin and d0 = !k * nout in
    let e1 = e0 + nin and d1 = d0 + nout in
    let i = ref 0 in
    while !i + 3 < nin do
      let i0 = !i in
      let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
      let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
      let wo = ref i0 in
      for o = 0 to nout - 1 do
        let x0 = Fbuf.get d (d0 + o) and x1 = Fbuf.get d (d1 + o) in
        let w0 = Fbuf.get w !wo and w1 = Fbuf.get w (!wo + 1)
        and w2 = Fbuf.get w (!wo + 2) and w3 = Fbuf.get w (!wo + 3) in
        s00 := !s00 +. (x0 *. w0);
        s01 := !s01 +. (x0 *. w1);
        s02 := !s02 +. (x0 *. w2);
        s03 := !s03 +. (x0 *. w3);
        s10 := !s10 +. (x1 *. w0);
        s11 := !s11 +. (x1 *. w1);
        s12 := !s12 +. (x1 *. w2);
        s13 := !s13 +. (x1 *. w3);
        wo := !wo + nin
      done;
      let j0 = e0 + i0 and j1 = e1 + i0 in
      let a00 = Fbuf.get a j0 and a01 = Fbuf.get a (j0 + 1)
      and a02 = Fbuf.get a (j0 + 2) and a03 = Fbuf.get a (j0 + 3) in
      let a10 = Fbuf.get a j1 and a11 = Fbuf.get a (j1 + 1)
      and a12 = Fbuf.get a (j1 + 2) and a13 = Fbuf.get a (j1 + 3) in
      Fbuf.set nd j0 (!s00 *. (1.0 -. (a00 *. a00)));
      Fbuf.set nd (j0 + 1) (!s01 *. (1.0 -. (a01 *. a01)));
      Fbuf.set nd (j0 + 2) (!s02 *. (1.0 -. (a02 *. a02)));
      Fbuf.set nd (j0 + 3) (!s03 *. (1.0 -. (a03 *. a03)));
      Fbuf.set nd j1 (!s10 *. (1.0 -. (a10 *. a10)));
      Fbuf.set nd (j1 + 1) (!s11 *. (1.0 -. (a11 *. a11)));
      Fbuf.set nd (j1 + 2) (!s12 *. (1.0 -. (a12 *. a12)));
      Fbuf.set nd (j1 + 3) (!s13 *. (1.0 -. (a13 *. a13)));
      i := i0 + 4
    done;
    for i = !i to nin - 1 do
      delta_entry lay ~a ~d ~nd !k i;
      delta_entry lay ~a ~d ~nd (!k + 1) i
    done;
    k := !k + 2
  done;
  if !k < n then begin
    let e0 = !k * nin and d0 = !k * nout in
    let i = ref 0 in
    while !i + 3 < nin do
      let i0 = !i in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      let wo = ref i0 in
      for o = 0 to nout - 1 do
        let x = Fbuf.get d (d0 + o) in
        s0 := !s0 +. (x *. Fbuf.get w !wo);
        s1 := !s1 +. (x *. Fbuf.get w (!wo + 1));
        s2 := !s2 +. (x *. Fbuf.get w (!wo + 2));
        s3 := !s3 +. (x *. Fbuf.get w (!wo + 3));
        wo := !wo + nin
      done;
      let j0 = e0 + i0 in
      let a0 = Fbuf.get a j0 and a1 = Fbuf.get a (j0 + 1)
      and a2 = Fbuf.get a (j0 + 2) and a3 = Fbuf.get a (j0 + 3) in
      Fbuf.set nd j0 (!s0 *. (1.0 -. (a0 *. a0)));
      Fbuf.set nd (j0 + 1) (!s1 *. (1.0 -. (a1 *. a1)));
      Fbuf.set nd (j0 + 2) (!s2 *. (1.0 -. (a2 *. a2)));
      Fbuf.set nd (j0 + 3) (!s3 *. (1.0 -. (a3 *. a3)));
      i := i0 + 4
    done;
    for i = !i to nin - 1 do
      delta_entry lay ~a ~d ~nd !k i
    done
  end

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
  forward_kernel lay ~hidden:(layer < nl - 1) ~src ~dst ~n:1 ~lo ~hi

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

(* layer [l]'s input rows *)
let src_of ws l = if l = 0 then ws.input else ws.act.(l - 1)

(* the first [c] loaded examples through every layer, then their class
   probabilities into the top delta rows *)
let forward t ~c =
  let nl = Array.length t.layers and ws = t.ws in
  for l = 0 to nl - 1 do
    let lay = t.layers.(l) in
    forward_kernel lay ~hidden:(l < nl - 1) ~src:(src_of ws l) ~dst:ws.act.(l)
      ~n:c ~lo:0 ~hi:lay.nout
  done;
  let k = t.layers.(nl - 1).nout in
  for r = 0 to c - 1 do
    softmax_row ~src:ws.act.(nl - 1) ~dst:ws.delta.(nl - 1) ~off:(r * k) ~c:k
  done

let probs t = t.ws.delta.(Array.length t.layers - 1)
let classes t = t.sizes.(Array.length t.sizes - 1)

(* a checked [x] through the network as a batch of one *)
let forward1 t x =
  t.one.(0) <- x;
  load t t.one ~k0:0 ~c:1;
  t.one.(0) <- [||];
  forward t ~c:1

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

(* Accumulate the gradients of the [c] loaded examples [k0, k0 + c), with
   checked [labels], into gw/gb; their losses are added to [t.loss]'s sum
   in example order and the last one is kept beside it, both read
   unboxed by the callers. *)
let backprop t ~k0 ~c labels =
  forward t ~c;
  let nl = Array.length t.layers and ws = t.ws in
  let top = ws.delta.(nl - 1) and classes = classes t in
  let total = ref (Fbuf.get t.loss 0) and last = ref 0.0 in
  for k = 0 to c - 1 do
    let j = (k * classes) + labels.(k0 + k) in
    let p = Fbuf.get top j in
    last := -.log (fmax 1e-12 p);
    total := !total +. !last;
    (* output delta: probs - onehot (p -. 0.0 is p exactly) *)
    Fbuf.set top j (p -. 1.0)
  done;
  Fbuf.set t.loss 0 !total;
  Fbuf.set t.loss 1 !last;
  for l = nl - 1 downto 0 do
    let lay = t.layers.(l) and a = src_of ws l in
    grads_kernel lay ~a ~d:ws.delta.(l) ~n:c;
    if l > 0 then
      propagate_kernel lay ~a ~d:ws.delta.(l) ~nd:ws.delta.(l - 1) ~n:c
  done

(* The gradients of a checked batch, [chunk] examples at a time; every
   gradient entry still sees the examples in order. The summed loss ends
   in [t.loss] slot 0, the last example's in slot 1. *)
let accumulate t xs labels =
  let n = Array.length xs in
  Fbuf.set t.loss 0 0.0;
  let k0 = ref 0 in
  while !k0 < n do
    let c = min chunk (n - !k0) in
    load t xs ~k0:!k0 ~c;
    backprop t ~k0:!k0 ~c labels;
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
  accumulate t xs labels;
  sgd_step ~momentum t ~lr ~batch:n;
  Fbuf.get t.loss 0 /. float_of_int n

(** Classification accuracy over a dataset. *)
let accuracy t xs labels =
  let n = Array.length xs in
  Array.iter (check_input t "accuracy") xs;
  let correct = ref 0 and k0 = ref 0 in
  while !k0 < n do
    let c = min chunk (n - !k0) in
    load t xs ~k0:!k0 ~c;
    forward t ~c;
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
    forward t ~c;
    let p = probs t and classes = classes t in
    for k = 0 to c - 1 do
      let pk = Fbuf.get p ((k * classes) + labels.(!k0 + k)) in
      total := !total -. log (fmax 1e-12 pk)
    done;
    k0 := !k0 + c
  done;
  !total /. float_of_int n

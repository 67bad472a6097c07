(** Dense multi-layer perceptron with manual backprop — the
    neural-network substrate for the distributed-training studies and the
    Table 3 ensemble combiners. Tanh hidden layers, softmax cross-entropy
    output, SGD with optional momentum.

    Weights, gradients and momentum live in flat row-major
    {!Icoe_util.Fbuf.t} buffers. A model owns a batch workspace (input,
    activation and delta rows for up to 32 examples) that grows to the
    largest chunk it has seen and is reused, so a steady-state training
    step allocates nothing. Training and inference share one C kernel
    per stage (forward, gradient, propagation), each keeping independent
    sums side by side in the lanes of 4-lane vectors (a gradient's last
    pair of inputs in a 2-lane one), built on x86-64 for the baseline
    ISA and for AVX2 and picked from the CPU at load time. {!step},
    {!train_batch} and {!backward} share one chunk core: {!step} reads a
    packed {!batch} in place, {!train_batch} copies its rows into the
    workspace, {!backward} is a batch of one. Every floating-point
    operation keeps the
    order of the plain per-example [float array array] formulation
    (pre-activations sum the bias first, then inputs ascending; softmax
    sums in {!Icoe_util.Stats.sum} order; gradients accumulate in
    example order), with no fused multiply-add, so results are
    bit-identical to it on every platform. A model is single-threaded:
    its workspace is shared by every call; two models on two domains
    share nothing. *)

type t

val create : rng:Icoe_util.Rng.t -> int array -> t
(** [create ~rng [|in; hidden...; out|]] with He-scaled init, drawn row
    by row with inputs ascending. Raises [Invalid_argument] when [sizes]
    has fewer than two entries or any entry below 1. *)

val clone : t -> t
(** A model with a copy of the parameters, and zero gradients and
    momentum. *)

val num_params : t -> int

val get_params : t -> float array
(** Flattened parameters (layer-major, each layer's weight rows then its
    biases). *)

val get_params_into : t -> float array -> unit
(** {!get_params} into an array of {!num_params} entries, which it
    overwrites; raises [Invalid_argument] on any other length. *)

val set_params : t -> float array -> unit
(** Inverse of {!get_params}; raises [Invalid_argument] unless the array
    has {!num_params} entries. *)

val get_grads : t -> float array
(** The accumulated gradients, in {!get_params} layout. *)

val reset : t -> float array -> unit
(** {!set_params}, then zero gradients and momentum: the state {!clone}
    would give a model with these parameters. *)

val predict_proba : t -> float array -> float array
(** Class probabilities. Raises [Invalid_argument] unless the input has
    [in] entries (also {!predict}, {!backward}, {!train_batch},
    {!accuracy}, {!eval_loss}). *)

val predict : t -> float array -> int

val zero_grads : t -> unit

val copy_grads : src:t -> dst:t -> unit
(** Overwrite [dst]'s accumulated gradients with [src]'s (same shape). *)

val backward : t -> float array -> label:int -> float
(** Accumulate gradients of the cross-entropy for one example; returns
    the loss. [n] calls followed by [sgd_step ~batch:n] equal one
    {!train_batch} on those examples, bit for bit. Raises
    [Invalid_argument] on a label outside [[0, out)]. *)

val sgd_step : ?momentum:float -> ?weight_decay:float -> t -> lr:float -> batch:int -> unit
(** Apply accumulated gradients (scaled by 1/batch) and clear them. *)

val train_batch :
  ?momentum:float -> t -> lr:float -> float array array -> int array -> float
(** One mini-batch step; returns the mean loss. Raises
    [Invalid_argument], before touching the model, when [xs] and
    [labels] differ in length, are empty, or any input or label is
    bad. *)

type batch
(** A training set packed once, for {!step}: its inputs row-major in
    one {!Icoe_util.Fbuf.t}, a copy of its labels, its input width and
    its largest label. *)

val batch : float array array -> int array -> batch
(** [batch xs labels]. Raises [Invalid_argument], before packing
    anything, when [xs] and [labels] differ in length, are empty, when
    the rows are ragged or of width 0, or on a negative label. *)

val step : momentum:float -> t -> lr:float -> batch -> unit
(** [step ~momentum t ~lr b] leaves the model as
    [ignore (train_batch ~momentum t ~lr xs labels)] does, bit for bit,
    for the [xs] and [labels] [b] was packed from: the same chunk core,
    reading each chunk's rows of [b] in place, without taking the loss,
    and allocating nothing. Raises [Invalid_argument], before touching
    the model, unless [b]'s width is [in] and its largest label below
    [out]. *)

val accuracy : t -> float array array -> int array -> float
val eval_loss : t -> float array array -> int array -> float

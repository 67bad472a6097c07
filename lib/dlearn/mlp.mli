(** Dense multi-layer perceptron with manual backprop — the
    neural-network substrate for the distributed-training studies and the
    Table 3 ensemble combiners. Tanh hidden layers, softmax cross-entropy
    output, SGD with optional momentum.

    Weights, gradients and momentum live in flat row-major
    {!Icoe_util.Fbuf.t} buffers. A model owns a batch workspace (input,
    activation and delta rows for up to 32 examples) that grows to the
    largest chunk it has seen and is reused, so a steady-state training
    step allocates nothing. Training, inference and {!forward_rows} share
    one register-blocked kernel per stage (forward, gradient,
    propagation); {!backward} is {!train_batch}'s path with a batch of
    one. Every floating-point operation keeps the order of the plain
    per-example [float array array] formulation (pre-activations sum the
    bias first, then inputs ascending; softmax sums in
    {!Icoe_util.Stats.sum} order; gradients accumulate in example order),
    so results are bit-identical to it. A model is single-threaded: its
    workspace is shared by every call. *)

type t

val create : rng:Icoe_util.Rng.t -> int array -> t
(** [create ~rng [|in; hidden...; out|]] with He-scaled init, drawn row
    by row with inputs ascending. Raises [Invalid_argument] when [sizes]
    has fewer than two entries or any entry below 1. *)

val sizes : t -> int array
(** A copy of the layer widths [[|in; hidden...; out|]]. *)

val clone : t -> t
(** A model with a copy of the parameters, and zero gradients and
    momentum. *)

val num_params : t -> int

val get_params : t -> float array
(** Flattened parameters (layer-major, each layer's weight rows then its
    biases). *)

val set_params : t -> float array -> unit
(** Inverse of {!get_params}; raises [Invalid_argument] unless the array
    has {!num_params} entries. *)

val get_grads : t -> float array
(** The accumulated gradients, in {!get_params} layout. *)

val reset : t -> float array -> unit
(** {!set_params}, then zero gradients and momentum: the state {!clone}
    would give a model with these parameters. *)

val softmax : float array -> float array

val forward_rows :
  t -> layer:int -> src:Icoe_util.Fbuf.t -> dst:Icoe_util.Fbuf.t -> lo:int ->
  hi:int -> unit
(** [forward_rows t ~layer ~src ~dst ~lo ~hi] writes output units
    [lo..hi-1] of [layer] (0-based), computed from the layer input [src]
    (its [in] width), into [dst] (its [out] width): tanh of the
    pre-activation on hidden layers, the logits on the last. The
    forward kernel of training and inference on a batch of one, so any
    row partition gives bit-identical outputs. Raises [Invalid_argument] on a bad layer, row range or
    buffer length. *)

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
    [labels] differ in length or any input or label is bad. *)

val accuracy : t -> float array array -> int array -> float
val eval_loss : t -> float array array -> int array -> float

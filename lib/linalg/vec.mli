(** Dense vector kernels over [float array] — the BLAS-1 building blocks
    every solver in the workload shares. Written as plain loops so
    flop/byte counts are evident when priced on the hardware model.

    The two-vector kernels ({!axpy}, {!xpby}, {!dot}, {!sub}, {!add},
    {!mul}, {!wrms}) raise [Invalid_argument], naming the function and
    both lengths, when the lengths differ. *)

val create : int -> float array
(** Zero vector of the given length. *)

val of_list : float list -> float array
val copy : float array -> float array
val fill : float array -> float -> unit

val axpy : float -> float array -> float array -> unit
(** [axpy a x y]: y <- a*x + y. *)

val xpby : float array -> float -> float array -> unit
(** [xpby x b y]: y <- x + b*y. *)

val scale : float -> float array -> unit

val dot : float array -> float array -> float
val nrm2 : float array -> float
val nrm_inf : float array -> float

val sub : float array -> float array -> float array
(** Fresh array x - y. *)

val add : float array -> float array -> float array

val mul : float array -> float array -> float array
(** Pointwise product, fresh array. *)

val map : (float -> float) -> float array -> float array
val blit : src:float array -> dst:float array -> unit

val wrms : float array -> float array -> float
(** Weighted RMS norm used by the CVODE-style integrator:
    sqrt((1/n) sum (x_i w_i)^2). *)

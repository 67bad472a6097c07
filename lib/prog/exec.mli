(** The forall/reduce layer: a miniature RAJA.

    [forall] really executes its body (the numerics are genuine) and
    charges the context clock with the roofline price of the loop under
    the context's policy and device, including launch overhead. Kernel
    fusion is then a first-class, measurable transformation: one fused
    [forall] pays one launch where k separate ones pay k. *)

type ctx = {
  policy : Policy.t;
  device : Hwsim.Device.t;
  link : Hwsim.Link.t;
  clock : Hwsim.Clock.t;
  mutable launches : int;
  mutable flops : float;
  mutable bytes : float;
}

val make_ctx :
  ?link:Hwsim.Link.t ->
  policy:Policy.t ->
  device:Hwsim.Device.t ->
  clock:Hwsim.Clock.t ->
  unit ->
  ctx

val charge : ctx -> phase:string -> n:int -> flops_per:float -> bytes_per:float -> unit
(** Price an n-element loop without running a body (for callers that
    executed the work themselves). *)

val forall :
  ctx -> ?phase:string -> n:int -> flops_per:float -> bytes_per:float ->
  (int -> unit) -> unit
(** Run the body for every index and charge simulated time. *)

val reduce :
  ctx -> ?phase:string -> n:int -> flops_per:float -> bytes_per:float ->
  init:'a -> combine:('a -> 'a -> 'a) -> (int -> 'a) -> 'a
(** Fold over indices; charged like a forall plus a log-depth combine. *)

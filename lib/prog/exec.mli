(** Loop pricing: the backend half of a miniature RAJA.

    A caller runs its loop as plain code, then calls [charge] with the
    trip count and per-element work. [charge] prices the loop with the
    roofline model under the context's policy and device, including
    launch overhead, and ticks the context clock. Kernel fusion is then a
    first-class, measurable transformation: one fused loop pays one
    launch where k separate ones pay k. *)

type ctx = {
  policy : Policy.t;
  device : Hwsim.Device.t;
  clock : Hwsim.Clock.t;
}

val make_ctx : policy:Policy.t -> device:Hwsim.Device.t -> clock:Hwsim.Clock.t -> ctx

val charge : ctx -> phase:string -> n:int -> flops_per:float -> bytes_per:float -> unit
(** Price an n-element loop the caller has run, under [phase]. *)

val charge_reduce :
  ctx -> phase:string -> n:int -> flops_per:float -> bytes_per:float -> unit
(** [charge], then the log-depth tree-combine of a reduction across the
    device's lanes, under the same [phase]. *)

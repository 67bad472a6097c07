(** Work descriptors: what a computational kernel did, independent of
    where it runs. Real OCaml kernels accumulate these counts while
    computing; the roofline prices them on a simulated device. *)

type t = {
  name : string;
  flops : float;  (** floating-point operations *)
  bytes : float;  (** DRAM traffic: reads + writes *)
  launches : int;  (** device kernel launches / parallel regions *)
}

val make : ?launches:int -> name:string -> flops:float -> bytes:float -> unit -> t
(** All quantities must be nonnegative ([launches] defaults to 1). *)

val add : t -> t -> t
(** Componentwise sum (keeps the first name). *)

val scale : float -> t -> t
(** Scales flops and bytes; launches are unchanged. *)

val intensity : t -> float
(** Arithmetic intensity, flops/byte; infinite when [bytes = 0]. *)

(** Work descriptors: what a computational kernel did, independent of where
    it runs. Real OCaml kernels accumulate these counts while computing, and
    the roofline prices them on a simulated device. *)

type t = {
  name : string;
  flops : float;  (** floating-point operations *)
  bytes : float;  (** DRAM traffic: reads + writes *)
  launches : int;  (** number of device kernel launches / parallel regions *)
}

let make ?(launches = 1) ~name ~flops ~bytes () =
  if not (flops >= 0.0 && bytes >= 0.0 && launches >= 0) then
    invalid_arg
      (Printf.sprintf
         "Kernel.make %s: flops = %g, bytes = %g, launches = %d (each must be >= 0)"
         name flops bytes launches);
  { name; flops; bytes; launches }

let add a b =
  {
    name = a.name;
    flops = a.flops +. b.flops;
    bytes = a.bytes +. b.bytes;
    launches = a.launches + b.launches;
  }

let scale k a =
  { a with flops = k *. a.flops; bytes = k *. a.bytes }

(** Arithmetic intensity in flops/byte; infinite for pure-compute kernels. *)
let intensity k = if k.bytes = 0.0 then infinity else k.flops /. k.bytes

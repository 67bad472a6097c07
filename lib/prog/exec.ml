(** The forall/reduce layer: a miniature RAJA.

    [forall ctx ~n ~flops_per ~bytes_per f] really executes [f i] for every
    i (the numerics are genuine) and charges the context clock with the
    roofline price of the loop under the context's policy and device,
    including launch overhead. Kernel fusion is then a first-class,
    measurable transformation: one fused [forall] pays one launch where k
    separate ones pay k (the ParaDyn and sw4lite merging stories). *)

type ctx = {
  policy : Policy.t;
  device : Hwsim.Device.t;
  link : Hwsim.Link.t;
  clock : Hwsim.Clock.t;
  mutable launches : int;
  mutable flops : float;
  mutable bytes : float;
}

let make_ctx ?(link = Hwsim.Link.nvlink2) ~policy ~device ~clock () =
  { policy; device; link; clock; launches = 0; flops = 0.0; bytes = 0.0 }

let charge ctx ~phase ~n ~flops_per ~bytes_per =
  let k =
    Hwsim.Kernel.make ~name:phase
      ~flops:(float_of_int n *. flops_per)
      ~bytes:(float_of_int n *. bytes_per)
      ~launches:0 ()
  in
  let eff = Policy.efficiency ctx.policy ctx.device in
  let launch =
    Policy.launch_multiplier ctx.policy *. ctx.device.Hwsim.Device.launch_overhead_s
  in
  let dt = launch +. Hwsim.Roofline.time ~eff ctx.device k in
  ctx.launches <- ctx.launches + 1;
  ctx.flops <- ctx.flops +. k.Hwsim.Kernel.flops;
  ctx.bytes <- ctx.bytes +. k.Hwsim.Kernel.bytes;
  Hwsim.Clock.tick ctx.clock ~phase dt

(** Parallel-for: runs the body for real, charges simulated time. *)
let forall ctx ?(phase = "forall") ~n ~flops_per ~bytes_per f =
  for i = 0 to n - 1 do
    f i
  done;
  charge ctx ~phase ~n ~flops_per ~bytes_per

(** Reduction returning the fold result; charged like a forall plus a
    log-depth combine term. *)
let reduce ctx ?(phase = "reduce") ~n ~flops_per ~bytes_per ~init ~combine f =
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := combine !acc (f i)
  done;
  charge ctx ~phase ~n ~flops_per ~bytes_per;
  (* tree-combine across lanes *)
  let depth =
    Float.of_int ctx.device.Hwsim.Device.lanes |> Float.log2 |> Float.ceil
  in
  Hwsim.Clock.tick ctx.clock ~phase (depth *. 0.2e-6);
  !acc

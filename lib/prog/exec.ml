(** Loop pricing: the backend half of a miniature RAJA.

    The loop body is plain code in the caller; [charge ctx ~n ~flops_per
    ~bytes_per] then prices the n-element loop with the roofline model
    under the context's policy and device, including launch overhead.
    Kernel fusion is a first-class, measurable transformation: one fused
    loop pays one launch where k separate ones pay k (the ParaDyn and
    sw4lite merging stories). *)

type ctx = {
  policy : Policy.t;
  device : Hwsim.Device.t;
  clock : Hwsim.Clock.t;
}

let make_ctx ~policy ~device ~clock = { policy; device; clock }

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
  Hwsim.Clock.tick ctx.clock ~phase dt

let charge_reduce ctx ~phase ~n ~flops_per ~bytes_per =
  charge ctx ~phase ~n ~flops_per ~bytes_per;
  (* tree-combine across lanes *)
  let depth =
    Float.of_int ctx.device.Hwsim.Device.lanes |> Float.log2 |> Float.ceil
  in
  Hwsim.Clock.tick ctx.clock ~phase (depth *. 0.2e-6)

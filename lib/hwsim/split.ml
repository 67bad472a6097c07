(** CPU/GPU work splits for heterogeneous co-execution — see the mli.

    The bit-identity contract lives here: at [f = 1.0] the only item
    enqueued is [Sched.work ~stream:gpu_stream ... (1.0 *. gpu_s)], and
    IEEE 754 guarantees [1.0 *. x] is bitwise [x], so a model built
    through [co_work] at the paper-default split is indistinguishable
    from one that never heard of splits. *)

type comm = Dedicated | Inline

let comm_name = function Dedicated -> "dedicated" | Inline -> "inline"

let validate f =
  if not (Float.is_finite f && f >= 0.0 && f <= 1.0) then
    invalid_arg (Fmt.str "Split: GPU share must be finite in [0, 1], got %g" f)

let lattice ?(steps = 20) () =
  if steps < 1 then invalid_arg "Split.lattice: steps must be >= 1";
  Array.init (steps + 1) (fun i -> float_of_int i /. float_of_int steps)

let co_work sched ~gpu_stream ~cpu_stream ?(deps = []) ~phase ~gpu_s ~cpu_s f =
  validate f;
  let gpu_item =
    if f > 0.0 then
      [
        Sched.work sched ~stream:gpu_stream ~deps ~phase (f *. gpu_s);
      ]
    else []
  in
  let cpu_item =
    if f < 1.0 then
      [
        Sched.work sched ~stream:cpu_stream ~deps ~phase ((1.0 -. f) *. cpu_s);
      ]
    else []
  in
  gpu_item @ cpu_item

(** Memory spaces and placed arrays.

    A [Darray.t] wraps a real [float array] (the values are genuinely
    computed on) plus a placement tag. Moving it between spaces charges the
    host link on a clock — so "keep data resident on the GPU", the paper's
    most repeated lesson, is visible as a measurable cost when violated. *)

type space = Host_mem | Device_mem | Unified

module Darray = struct
  type t = {
    mutable data : float array;
    mutable space : space;
    mutable device_copy_valid : bool;
        (** for Unified: whether pages are currently resident device-side *)
  }

  let create ?(space = Host_mem) n =
    { data = Array.make n 0.0; space; device_copy_valid = space <> Host_mem }

  let bytes t = 8.0 *. float_of_int (Array.length t.data)

  (** Explicit move; charges the link and flips placement. No charge if
      already there. *)
  let move t ~(to_ : space) ~(link : Hwsim.Link.t) ~(clock : Hwsim.Clock.t) =
    if t.space <> to_ then begin
      let dt =
        match (t.space, to_) with
        | Unified, _ | _, Unified ->
            Hwsim.Link.unified_memory_transfer ~link ~bytes:(bytes t)
        | _ -> Hwsim.Link.transfer_time link ~bytes:(bytes t)
      in
      Hwsim.Clock.tick clock ~phase:"data-motion" dt;
      t.space <- to_;
      t.device_copy_valid <- to_ <> Host_mem
    end

  (** Ensure the array is visible to [side] executions, migrating if not. *)
  let ensure t ~(side : Policy.side) ~link ~clock =
    match (side, t.space) with
    | Policy.Host, (Device_mem | Unified) -> move t ~to_:Host_mem ~link ~clock
    | Policy.Accelerator, Host_mem -> move t ~to_:Device_mem ~link ~clock
    | Policy.Host, Host_mem -> ()
    | Policy.Accelerator, (Device_mem | Unified) -> ()
end

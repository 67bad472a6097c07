(** Sec 4.11: the GPUDirect vs cudaMemcpy crossover on the link model. *)

open Icoe_util

let gpudirect () =
  let t = Table.create ~title:"Sec 4.11: transfer time (us) by message size"
      ~aligns:[| Table.Right; Table.Right; Table.Right; Table.Left |]
      [ "bytes"; "GPUDirect"; "cudaMemcpy"; "winner" ] in
  List.iter
    (fun bytes ->
      let gd = Hwsim.Link.transfer_time Hwsim.Link.gpudirect ~bytes in
      let cm = Hwsim.Link.transfer_time Hwsim.Link.cuda_memcpy ~bytes in
      Table.add_row t
        [ Fmt.str "%.0f" bytes; Table.fcell ~prec:2 (gd *. 1e6);
          Table.fcell ~prec:2 (cm *. 1e6);
          (if gd < cm then "GPUDirect" else "cudaMemcpy") ])
    [ 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0; 262144.0 ];
  let um = Hwsim.Link.unified_memory_transfer ~link:Hwsim.Link.nvlink2 ~bytes:65536.0 in
  Harness.section "Sec 4.11 — GPUDirect vs cudaMemcpy (paper: crossover at a few KB)"
    (Fmt.str "%sCUDA Unified Memory moves 64 KiB blocks: %.2f us per block\n"
       (Table.render t) (um *. 1e6))

let harness =
  Harness.make ~id:"gpudirect" ~description:"GPUDirect crossover (Sec 4.11)"
    ~tags:[ "study"; "activity:hwsim" ]
    gpudirect

(** Fig 9: VBL phase defects and split-step propagation (Sec 4.12). *)

open Icoe_util

let fig9 () =
  let run defects =
    let b = Vbl.Beam.create ~n:256 ~width:0.05 () in
    Vbl.Beam.flat_top b;
    if defects then Vbl.Propagate.defect_screen ~defect_size:150e-6 ~depth:2.0 b;
    let c0 = Vbl.Beam.center_contrast b in
    Vbl.Propagate.run b ~distance:10.0 ~steps:5;
    (c0, Vbl.Beam.center_contrast b)
  in
  let c0_clean, c_clean = run false in
  let c0_def, c_def = run true in
  let t_raja = Vbl.Propagate.step_time ~n:2048 ~device:Hwsim.Device.v100 ~transpose_variant:`Naive in
  let t_cuda = Vbl.Propagate.step_time ~n:2048 ~device:Hwsim.Device.v100 ~transpose_variant:`Tiled in
  let t = Table.create ~title:"Fig 9: fluence modulation contrast after 10 m"
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
      [ "beam"; "at z=0"; "at z=10m" ] in
  Table.add_row t [ "clean"; Table.fcell c0_clean; Table.fcell c_clean ];
  Table.add_row t [ "two 150um phase defects"; Table.fcell c0_def; Table.fcell c_def ];
  Harness.section "Fig 9 — VBL split-step propagation"
    (Fmt.str "%sripple growth %.0fx; transpose recoded in CUDA: split-step %.2f -> %.2f ms (%.1fx)\n"
       (Table.render t) (c_def /. max 1e-9 c_clean)
       (t_raja *. 1e3) (t_cuda *. 1e3) (t_raja /. t_cuda))

let harness =
  Harness.make ~id:"fig9" ~description:"VBL phase-defect ripples"
    ~tags:[ "figure"; "activity:vbl" ]
    fig9

(** Fig 8 and Table 4: the MFEM + hypre + SUNDIALS integrated stack
    (Sec 4.10). *)

open Icoe_util

let fig8 () =
  (* real integrated run; priced at the paper's 1M-DoF scale on the Fig 8
     hardware pair (1 P8 thread vs P100) *)
  let r = Mfem.Nldiff.run ~n:10 ~p:3 ~tf:0.004 () in
  let scale = 1.0e6 /. float_of_int r.Mfem.Nldiff.ndof in
  (* each device's breakdown is charged as spans under one device span,
     so the trace answers "where did the time go, on which device" *)
  let tr = Hwsim.Trace.create ~root:"fig8" (Hwsim.Clock.create ()) in
  let priced label (device : Hwsim.Device.t) policy =
    Hwsim.Trace.with_span tr ~device:device.Hwsim.Device.name label (fun () ->
        let f, p, s = Mfem.Nldiff.price ~scale r ~device ~policy in
        let dev = device.Hwsim.Device.name in
        Hwsim.Trace.charge tr ~device:dev ~phase:"formulation" f;
        Hwsim.Trace.charge tr ~device:dev ~phase:"preconditioner" p;
        Hwsim.Trace.charge tr ~device:dev ~phase:"solve" s;
        (f, p, s))
  in
  let fc, pc, sc = priced "nldiff/P8-serial" Hwsim.Device.power8 Prog.Policy.Serial in
  let fg, pg, sg = priced "nldiff/P100-cuda" Hwsim.Device.p100 Prog.Policy.Cuda in
  (* nest-counter reading over the GPU pass: cumulative DRAM traffic of
     the scaled V-cycles, attached to the root for context *)
  let ctr = Hwsim.Counters.create Hwsim.Device.p100 in
  Hwsim.Counters.sample ctr ~time:(fc +. pc +. sc) ~bytes:0.0;
  Hwsim.Counters.sample ctr
    ~time:(Hwsim.Trace.now tr)
    ~bytes:
      ((Hwsim.Kernel.scale scale r.Mfem.Nldiff.vcycle_work).Hwsim.Kernel.bytes
      *. float_of_int r.Mfem.Nldiff.counters.Mfem.Nldiff.vcycles);
  Hwsim.Trace.annotate_counters tr ctr;
  Harness.record_trace "fig8" tr;
  let t = Table.create ~title:"Fig 8: nonlinear diffusion timing breakdown (s, 1M DoF)"
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
      [ "phase"; "P8 (1 thread)"; "P100" ] in
  Table.add_row t [ "formulation"; Table.fcell ~prec:2 fc; Table.fcell ~prec:2 fg ];
  Table.add_row t [ "preconditioner"; Table.fcell ~prec:2 pc; Table.fcell ~prec:2 pg ];
  Table.add_row t [ "solve"; Table.fcell ~prec:2 sc; Table.fcell ~prec:2 sg ];
  Table.add_row t
    [ "TOTAL"; Table.fcell ~prec:2 (fc +. pc +. sc); Table.fcell ~prec:2 (fg +. pg +. sg) ];
  let c = r.Mfem.Nldiff.counters in
  Harness.section "Fig 8 — MFEM + hypre + SUNDIALS nonlinear diffusion"
    (Fmt.str
       "%sreal run: %d BDF steps, %d Newton iters, %d PCG iters, %d V-cycles; GPU/CPU speedup %.1fx\n"
       (Table.render t) r.Mfem.Nldiff.ode_stats.Sundials.Cvode.nsteps
       r.Mfem.Nldiff.ode_stats.Sundials.Cvode.nniters c.Mfem.Nldiff.pcg_iters
       c.Mfem.Nldiff.vcycles
       ((fc +. pc +. sc) /. (fg +. pg +. sg)))

let table4 () =
  let paper =
    [ (20.8e3, [ 2.88; 2.78; 4.97 ]); (82.6e3, [ 6.67; 8.00; 12.47 ]);
      (329.0e3, [ 10.59; 13.71; 19.00 ]); (1.313e6, [ 12.32; 14.36; 20.80 ]) ]
  in
  let t = Table.create ~title:"Table 4: GPU (P9+V100) speedup over serial CPU"
      ~aligns:[| Table.Right; Table.Right; Table.Right; Table.Right; Table.Left |]
      [ "Unknowns"; "p=2"; "p=4"; "p=8"; "paper (p=2/4/8)" ] in
  (* one real run per order; each size row scales the measured work *)
  let runs = List.map (fun p -> (p, Mfem.Nldiff.run ~n:(24 / p) ~p ~tf:0.004 ())) [ 2; 4; 8 ] in
  let tr = Hwsim.Trace.create ~root:"table4" (Hwsim.Clock.create ()) in
  List.iter
    (fun (unknowns, paper_row) ->
      let speedups =
        Hwsim.Trace.with_span tr (Fmt.str "unknowns=%.3g" unknowns) (fun () ->
            List.map
              (fun (p, r) ->
                let scale = unknowns /. float_of_int r.Mfem.Nldiff.ndof in
                let fc, pc, sc =
                  Mfem.Nldiff.price ~scale r ~device:Hwsim.Device.power9
                    ~policy:Prog.Policy.Serial
                in
                let fg, pg, sg =
                  Mfem.Nldiff.price ~scale r ~device:Hwsim.Device.v100
                    ~policy:Prog.Policy.Cuda
                in
                Hwsim.Trace.with_span tr (Fmt.str "p=%d" p) (fun () ->
                    Hwsim.Trace.charge tr ~device:"POWER9" ~phase:"cpu-serial"
                      (fc +. pc +. sc);
                    Hwsim.Trace.charge tr ~device:"V100" ~phase:"gpu-cuda"
                      (fg +. pg +. sg));
                (fc +. pc +. sc) /. (fg +. pg +. sg))
              runs)
      in
      Table.add_row t
        ([ Fmt.str "%.3g" unknowns ]
        @ List.map (Table.fcell ~prec:2) speedups
        @ [ String.concat "/" (List.map (Fmt.str "%.2f") paper_row) ]))
    paper;
  Harness.record_trace "table4" tr;
  Harness.section "Table 4 — integrated-stack GPU speedups" (Table.render t)

(* the registry entries, each named after the run function it wraps *)
let fig8 =
  Harness.make ~id:"fig8" ~description:"Nonlinear diffusion timing breakdown"
    ~tags:[ "figure"; "activity:mfem"; "traced" ]
    fig8

let table4 =
  Harness.make ~id:"table4" ~description:"Integrated-stack GPU speedups"
    ~tags:[ "table"; "activity:mfem"; "traced" ]
    table4

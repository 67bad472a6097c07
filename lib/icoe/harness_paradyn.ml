(** Fig 6: ParaDyn SLNSP and dead-store elimination (Sec 4.8). *)

open Icoe_util

let fig6 () =
  let rng = Rng.create 7 in
  let n = 1000 in
  let inputs =
    List.map
      (fun a -> (a, Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)))
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let base = Paradyn.Ir.paradyn_kernel in
  let slnsp = Paradyn.Passes.slnsp base in
  let dse = Paradyn.Passes.dse slnsp in
  let nbig = 4_000_000 in
  let t = Table.create ~title:"Fig 6: ParaDyn kernel execution (4M elements, V100 model)"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "variant"; "loads/elem"; "stores/elem"; "launches"; "time (ms)" ] in
  let times =
    List.map
      (fun (name, p) ->
        let _, c = Paradyn.Interp.run p ~inputs in
        let tm = Paradyn.Interp.gpu_time ~n:nbig c in
        Table.add_row t
          [ name; string_of_int c.Paradyn.Interp.loads;
            string_of_int c.Paradyn.Interp.stores;
            string_of_int c.Paradyn.Interp.launches;
            Table.fcell ~prec:3 (tm *. 1e3) ];
        tm)
      [ ("baseline", base); ("SLNSP", slnsp); ("SLNSP+DSE", dse) ]
  in
  match times with
  | [ t0; t1; t2 ] ->
      Harness.section "Fig 6 — ParaDyn compiler optimizations"
        (Fmt.str "%sSLNSP speedup %.2fx (paper: ~2x, matching load reduction); DSE adds %.0f%% (paper: 20%%)\n"
           (Table.render t) (t0 /. t1) (((t1 /. t2) -. 1.0) *. 100.0))
  | _ -> assert false

let harness =
  Harness.make ~id:"fig6" ~description:"ParaDyn SLNSP + dead-store elimination"
    ~tags:[ "figure"; "activity:paradyn" ]
    fig6

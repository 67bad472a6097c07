(** Table 2: HavoqGT historical graph scale and GTEPS, plus a real
    direction-optimizing BFS run (Sec 4.4). *)

open Icoe_util

let table2 () =
  let t = Table.create ~title:"Table 2: historically best graph scale and performance"
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "Machine"; "Year"; "Nodes"; "Scale"; "Scale(paper)"; "GTEPS"; "GTEPS(paper)" ] in
  List.iter2
    (fun m (name, year, nodes, scale_p, gteps_p) ->
      Table.add_row t
        [ name; string_of_int year; string_of_int nodes;
          string_of_int (Havoq.Perf.max_scale m); string_of_int scale_p;
          Table.fcell (Havoq.Perf.gteps m); Table.fcell gteps_p ])
    Havoq.Perf.machines Havoq.Perf.paper_rows;
  (* plus a real BFS run demonstrating the direction-optimizing engine *)
  let rng = Rng.create 9 in
  let g = Havoq.Graph.rmat ~rng ~scale:12 () in
  let src = ref 0 in
  for v = 0 to g.Havoq.Graph.n - 1 do
    if Havoq.Graph.degree g v > Havoq.Graph.degree g !src then src := v
  done;
  let td = Havoq.Bfs.top_down g ~src:!src in
  let hy = Havoq.Bfs.hybrid g ~src:!src in
  (* trace the two sweeps priced on the BG/Q model (one edge inspection
     ~ 16 B of irregular traffic, 2 flops), with a nest-counter reading
     attached so the span records how bandwidth-bound BFS is *)
  let tr = Hwsim.Trace.create ~root:"table2" (Hwsim.Clock.create ()) in
  let bfs_kernel name (r : Havoq.Bfs.stats) =
    let e = float_of_int r.Havoq.Bfs.edges_traversed in
    Hwsim.Kernel.make ~name ~flops:(2.0 *. e) ~bytes:(16.0 *. e) ()
  in
  let ctr = Hwsim.Counters.create Hwsim.Device.bgq in
  Hwsim.Trace.with_span tr "bfs" (fun () ->
      Hwsim.Counters.sample ctr ~time:(Hwsim.Trace.now tr) ~bytes:0.0;
      let ktd = bfs_kernel "bfs/top-down" td in
      let khy = bfs_kernel "bfs/hybrid" hy in
      ignore (Hwsim.Trace.charge_kernel tr ~phase:"bfs/top-down" Hwsim.Device.bgq ktd);
      ignore (Hwsim.Trace.charge_kernel tr ~phase:"bfs/hybrid" Hwsim.Device.bgq khy);
      Hwsim.Counters.sample ctr ~time:(Hwsim.Trace.now tr)
        ~bytes:(ktd.Hwsim.Kernel.bytes +. khy.Hwsim.Kernel.bytes);
      Hwsim.Trace.annotate_counters tr ctr);
  Harness.record_trace "table2" tr;
  Harness.section "Table 2 — HavoqGT graph BFS"
    (Fmt.str "%sreal RMAT scale-12 BFS: top-down traversed %d edges, hybrid %d (%.1fx fewer), %d direction switches\n"
       (Table.render t) td.Havoq.Bfs.edges_traversed hy.Havoq.Bfs.edges_traversed
       (float_of_int td.Havoq.Bfs.edges_traversed /. float_of_int hy.Havoq.Bfs.edges_traversed)
       hy.Havoq.Bfs.switches)

let harness =
  Harness.make ~id:"table2" ~description:"Historical graph scale and GTEPS"
    ~tags:[ "table"; "activity:havoqgt"; "traced" ]
    table2

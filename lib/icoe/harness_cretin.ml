(** Sec 4.3: Cretin node throughput and the minikin gradient solve. *)

open Icoe_util

let cretin () =
  (* real minikin run *)
  let model = Cretin.Atomic.ladder 10 in
  let mk = Cretin.Minikin.create ~nzones:24 ~te0:1.0 ~te1:50.0 model in
  Cretin.Minikin.solve_all mk;
  let cold = Cretin.Minikin.mean_excitation mk.Cretin.Minikin.zones.(0) in
  let hot = Cretin.Minikin.mean_excitation mk.Cretin.Minikin.zones.(23) in
  let t = Table.create ~title:"Sec 4.3: Cretin node throughput, GPU vs CPU"
      ~aligns:[| Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "levels"; "zone MB"; "CPU cores idle"; "GPU/CPU speedup" ] in
  List.iter
    (fun n ->
      let m = Cretin.Atomic.ladder n in
      let s, idle = Cretin.Minikin.node_speedup m in
      Table.add_row t
        [ string_of_int n;
          Table.fcell ~prec:1 (Cretin.Atomic.zone_bytes m /. 1e6);
          Fmt.str "%.0f%%" (idle *. 100.0); Table.fcell ~prec:2 s ])
    [ 40; 400; 2000; 12000; 18000 ];
  Harness.section "Sec 4.3 — Cretin / minikin (paper: 5.75X for 2nd-largest; largest idles 60% of cores)"
    (Fmt.str "%sreal 24-zone gradient solve: mean excitation %.3f (1 eV) -> %.3f (50 eV)\n"
       (Table.render t) cold hot)

let harness =
  Harness.make ~id:"cretin" ~description:"Cretin node speedups (Sec 4.3)"
    ~tags:[ "study"; "activity:cretin" ]
    cretin

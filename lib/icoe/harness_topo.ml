(** Cross-generation interconnect study: the paper's
    flagship workloads re-priced on exascale-era hierarchical topologies
    — Sierra's flat dual-rail EDR against Frontier's Slingshot dragonfly
    and a Grace-Hopper NDR fat tree — under contiguous vs scattered
    placement, strong-scaling to 4096 nodes. *)

open Icoe_util

let machines =
  [ Hwsim.Node.sierra; Hwsim.Node.frontier; Hwsim.Node.grace_hopper ]

let mname (m : Hwsim.Node.machine) = m.Hwsim.Node.node.Hwsim.Node.name
let sweep = [ 64; 256; 512; 1024; 4096 ]

(* --- the machine zoo, through the pp_machine printer --- *)

let zoo_section () =
  Harness.section "Machine zoo — node composition and network parameters"
    (String.concat ""
       (List.map (fun m -> Fmt.str "%a\n" Hwsim.Node.pp_machine m) machines))

(* --- SW4 production campaign, strong-scaled across generations --- *)

let sw4_section () =
  let grid_points = 26.0e9 in
  let hops_ok = ref true in
  let t =
    Table.create
      ~title:
        "SW4 Hayward campaign (26B points, s/step): strong scaling by \
         placement"
      ~aligns:
        [|
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right;
        |]
      [
        "machine"; "nodes"; "step (ms)"; "halo c (us)"; "halo r (us)"; "hops";
      ]
  in
  List.iter
    (fun (m : Hwsim.Node.machine) ->
      List.iter
        (fun nodes ->
          let step p =
            Sw4.Scenario.production_step_model ~overlap:true ~placement:p m
              ~nodes ~grid_points
          in
          let c = step Hwsim.Topology.Contiguous in
          let r = step Hwsim.Topology.Random_spread in
          let topo = m.Hwsim.Node.topology in
          let lc = Hwsim.Topology.crossing topo ~nodes Hwsim.Topology.Contiguous
          and lr =
            Hwsim.Topology.crossing topo ~nodes Hwsim.Topology.Random_spread
          in
          let hc = Hwsim.Topology.hops topo ~level:lc
          and hr = Hwsim.Topology.hops topo ~level:lr in
          hops_ok := !hops_ok && hc >= 1 && hr >= 1;
          Table.add_row t
            [
              mname m;
              string_of_int nodes;
              Table.fcell ~prec:2 (c.Sw4.Scenario.step_s *. 1e3);
              Table.fcell ~prec:1 (c.Sw4.Scenario.halo_s *. 1e6);
              Table.fcell ~prec:1 (r.Sw4.Scenario.halo_s *. 1e6);
              Fmt.str "%d->%d" hc hr;
            ];
          (* the table shows the contiguous step only *)
          if nodes = 4096 then begin
            let row = Fmt.str "sw4/%s/%dn" (mname m) nodes in
            Harness.record_row ~section:"topology" ~unit:"s"
              (row ^ "/contiguous_step_s") c.Sw4.Scenario.step_s;
            Harness.record_row ~section:"topology" ~unit:"s"
              (row ^ "/random_step_s") r.Sw4.Scenario.step_s
          end)
        sweep)
    machines;
  Harness.record_check "topo/hops>=1" !hops_ok;
  Harness.section
    "SW4 across generations — halo priced at the placement's switch crossing"
    (Table.render t)

(* --- ddcMD halo: a 4 MB domain-decomposition exchange per step --- *)

let md_section () =
  let t =
    Table.create
      ~title:"ddcMD 4 MB halo (us): placement sensitivity by gang size"
      ~aligns:
        [| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "machine"; "nodes"; "contiguous"; "reordered"; "random" ]
  in
  List.iter
    (fun (m : Hwsim.Node.machine) ->
      List.iter
        (fun nodes ->
          let halo p =
            Hwsim.Topology.gang_transfer_time m.Hwsim.Node.topology ~nodes
              ~placement:p ~bytes:4.0e6
          in
          Table.add_row t
            [
              mname m;
              string_of_int nodes;
              Table.fcell ~prec:1 (halo Hwsim.Topology.Contiguous *. 1e6);
              Table.fcell ~prec:1 (halo Hwsim.Topology.Rank_reordered *. 1e6);
              Table.fcell ~prec:1 (halo Hwsim.Topology.Random_spread *. 1e6);
            ])
        [ 128; 1024 ])
    machines;
  Harness.section "ddcMD across generations" (Table.render t)

(* --- KAVG: recursive-doubling allreduce across switch levels ---

   Per-round pair distances double, so a contiguous gang keeps its early
   rounds inside leaf subtrees while a scattered one pays the top level
   every round — the strict penalty the truth line below asserts. *)

let kavg_section () =
  let sizes = [| 256; 512; 128; 16 |] in
  let t =
    Table.create
      ~title:"KAVG round (ms): allreduce priced per recursive-doubling round"
      ~aligns:
        [| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
      [ "machine"; "learners"; "contig"; "random"; "penalty" ]
  in
  let strict = ref true in
  List.iter
    (fun (m : Hwsim.Node.machine) ->
      List.iter
        (fun learners ->
          let round p =
            (Dlearn.Distributed.kavg_round_model ~overlap:true
               ~topology:m.Hwsim.Node.topology ~placement:p ~learners ~k:8
               ~batch:32 sizes)
              .Dlearn.Distributed.round_s
          in
          let c = round Hwsim.Topology.Contiguous
          and r = round Hwsim.Topology.Random_spread in
          let flat = Hwsim.Topology.is_flat m.Hwsim.Node.topology in
          if learners >= 512 && not flat then strict := !strict && r > c;
          let row = Fmt.str "%s/%dn" (mname m) learners in
          Harness.record_row ~section:"topology" ~unit:"s"
            (row ^ "/contiguous_step_s") c;
          Harness.record_row ~section:"topology" ~unit:"s"
            (row ^ "/random_step_s") r;
          (* a flat network prices every placement alike; a hierarchical
             one never makes scattering cheaper *)
          Harness.record_check ("topo/" ^ row ^ "/placement-order")
            (c > 0.0 && if flat then r = c else r >= c);
          Table.add_row t
            [
              mname m; string_of_int learners; Table.fcell ~prec:3 (c *. 1e3);
              Table.fcell ~prec:3 (r *. 1e3); Table.fcell ~prec:3 (r /. c);
            ])
        [ 512; 1024; 4096 ])
    machines;
  (* the acceptance line: on both hierarchical machines, a scattered
     512+-node gang is strictly slower than a contiguous one *)
  Harness.record_check "topo/random-slower-at-512+" !strict;
  Harness.section "KAVG across generations"
    (Fmt.str
       "%struth: random placement strictly slower than contiguous at >=512 \
        nodes on Frontier and GraceHopper: %b\n"
       (Table.render t) !strict)

let topo () =
  zoo_section () ^ sw4_section () ^ md_section () ^ kavg_section ()

let harness =
  Harness.make ~id:"topo"
    ~description:"Cross-generation topology/placement study"
    ~tags:[ "study"; "activity:hwsim" ]
    topo

(** Table 5: CleverLeaf on SAMRAI (Sec 4.10.5). *)

open Icoe_util

let table5 () =
  (* real hydro run for correctness evidence *)
  let sim = Samrai.Cleverleaf.create ~nx:64 ~ny:8 ~lx:1.0 ~ly:0.125 () in
  Samrai.Cleverleaf.init sim (fun ~x ~y:_ ->
      if x < 0.5 then (1.0, 0.0, 0.0, 1.0) else (0.125, 0.0, 0.0, 0.1));
  let m0, _, _, e0 = Samrai.Cleverleaf.totals sim in
  Samrai.Cleverleaf.run sim 0.15;
  let m1, _, _, e1 = Samrai.Cleverleaf.totals sim in
  let (fc, fg), (sc, sg) = Samrai.Cleverleaf.table5_times ~cells:4_000_000 ~steps:500 in
  let t = Table.create ~title:"Table 5: CleverLeaf mini-app performance (s)"
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
      [ ""; "Full Node"; "P9 vs V100" ] in
  Table.add_row t [ "CPU time (s)"; Table.fcell ~prec:1 fc; Table.fcell ~prec:1 sc ];
  Table.add_row t [ "GPU time (s)"; Table.fcell ~prec:2 fg; Table.fcell ~prec:2 sg ];
  Table.add_row t
    [ "Speedup"; Fmt.str "%.0fX" (fc /. fg); Fmt.str "%.0fX" (sc /. sg) ];
  Harness.section "Table 5 — CleverLeaf on SAMRAI (paper: 7X / 15X)"
    (Fmt.str "%sreal Sod run: %d steps, mass drift %.1e, energy drift %.1e\n"
       (Table.render t) sim.Samrai.Cleverleaf.steps
       (Float.abs (m1 -. m0)) (Float.abs (e1 -. e0)))

let harness =
  Harness.make ~id:"table5" ~description:"CleverLeaf on SAMRAI"
    ~tags:[ "table"; "activity:samrai" ]
    table5

(* Tests for the SAMRAI analog: boxes, patches, hierarchy, CleverLeaf. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- box --- *)

let test_box_basics () =
  let b = Samrai.Box.make ~ilo:2 ~jlo:3 ~ihi:5 ~jhi:7 in
  Alcotest.(check int) "ni" 4 (Samrai.Box.ni b);
  Alcotest.(check int) "nj" 5 (Samrai.Box.nj b);
  Alcotest.(check int) "size" 20 (Samrai.Box.size b);
  Alcotest.(check bool) "contains" true (Samrai.Box.contains b ~i:2 ~j:7);
  Alcotest.(check bool) "not contains" false (Samrai.Box.contains b ~i:6 ~j:3)

let test_box_intersect () =
  let a = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:4 ~jhi:4 in
  let b = Samrai.Box.make ~ilo:3 ~jlo:2 ~ihi:8 ~jhi:8 in
  (match Samrai.Box.intersect a b with
  | None -> Alcotest.fail "should intersect"
  | Some ov ->
      Alcotest.(check int) "ilo" 3 ov.Samrai.Box.ilo;
      Alcotest.(check int) "ihi" 4 ov.Samrai.Box.ihi;
      Alcotest.(check int) "jlo" 2 ov.Samrai.Box.jlo);
  let c = Samrai.Box.make ~ilo:10 ~jlo:10 ~ihi:12 ~jhi:12 in
  Alcotest.(check bool) "disjoint" true (Samrai.Box.intersect a c = None)

let test_box_split_covers () =
  let b = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:15 ~jhi:7 in
  let parts = Samrai.Box.split b 4 in
  let total = List.fold_left (fun a p -> a + Samrai.Box.size p) 0 parts in
  Alcotest.(check int) "partition preserves cells" (Samrai.Box.size b) total;
  Alcotest.(check bool) "multiple parts" true (List.length parts > 1)

(* --- patch --- *)

let test_patch_fields_and_ghosts () =
  let b = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:3 ~jhi:3 in
  let p = Samrai.Patch.create ~ghosts:1 b in
  Samrai.Patch.alloc_field p "u";
  Samrai.Patch.set p "u" ~i:0 ~j:0 5.0;
  check_float "get/set" 5.0 (Samrai.Patch.get p "u" ~i:0 ~j:0);
  (* ghost index is addressable *)
  Samrai.Patch.set p "u" ~i:(-1) ~j:0 7.0;
  check_float "ghost" 7.0 (Samrai.Patch.get p "u" ~i:(-1) ~j:0)

let test_patch_ghost_exchange () =
  let b1 = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:3 ~jhi:3 in
  let b2 = Samrai.Box.make ~ilo:4 ~jlo:0 ~ihi:7 ~jhi:3 in
  let p1 = Samrai.Patch.create ~ghosts:1 b1 in
  let p2 = Samrai.Patch.create ~ghosts:1 b2 in
  Samrai.Patch.alloc_field p1 "u";
  Samrai.Patch.alloc_field p2 "u";
  Samrai.Patch.iter_interior p2 (fun ~i ~j ->
      Samrai.Patch.set p2 "u" ~i ~j (float_of_int (i + j)));
  Samrai.Patch.fill_ghosts_from p1 "u" ~src:p2;
  (* p1's right ghost column picks up p2's i=4 interior *)
  check_float "ghost filled" 4.0 (Samrai.Patch.get p1 "u" ~i:4 ~j:0);
  check_float "ghost filled j=3" 7.0 (Samrai.Patch.get p1 "u" ~i:4 ~j:3)

let test_patch_pool_amortization () =
  let pool = Prog.Pool.create "t" in
  let clock = Hwsim.Clock.create () in
  let b = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:7 ~jhi:7 in
  (* allocate the same field shape repeatedly, returning each block to
     the pool before the next patch takes it *)
  for _ = 1 to 20 do
    let p = Samrai.Patch.create ~ghosts:1 ~pool ~clock b in
    Samrai.Patch.alloc_field p "u";
    Prog.Pool.free pool
      ~bytes:(8.0 *. float_of_int (Samrai.Box.size p.Samrai.Patch.gbox))
  done;
  Alcotest.(check int) "one raw allocation" 1 pool.Prog.Pool.raw_allocs;
  Alcotest.(check int) "rest pooled" 19 pool.Prog.Pool.pooled_allocs

(* --- hierarchy --- *)

let test_hierarchy_levels () =
  let d = Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:31 ~jhi:31 in
  let h = Samrai.Hierarchy.create ~fields:[ "u" ] d in
  Alcotest.(check int) "four patches" 4 (List.length h.Samrai.Hierarchy.patches);
  Alcotest.(check int) "level cells" 1024 (Samrai.Hierarchy.total_cells h)

let test_hierarchy_fill_ghosts () =
  (* after one exchange every edge ghost holds the neighbour's interior
     value, or its own boundary cell's on the domain edge, and every
     corner ghost inside the domain holds the diagonal neighbour's *)
  let d = Samrai.Box.make ~ilo:2 ~jlo:(-3) ~ihi:13 ~jhi:4 in
  let h = Samrai.Hierarchy.create ~fields:[ "u" ] d in
  let f i j = float_of_int ((100 * i) + j) in
  List.iter
    (fun p -> Samrai.Patch.iter_interior p (fun ~i ~j -> Samrai.Patch.set p "u" ~i ~j (f i j)))
    h.Samrai.Hierarchy.patches;
  Samrai.Hierarchy.fill_ghosts h "u";
  let clamp lo hi x = min (max x lo) hi in
  List.iter
    (fun p ->
      let b = p.Samrai.Patch.box and g = p.Samrai.Patch.gbox in
      for j = g.Samrai.Box.jlo to g.Samrai.Box.jhi do
        for i = g.Samrai.Box.ilo to g.Samrai.Box.ihi do
          let in_i = i >= b.Samrai.Box.ilo && i <= b.Samrai.Box.ihi in
          let in_j = j >= b.Samrai.Box.jlo && j <= b.Samrai.Box.jhi in
          let cell = Printf.sprintf "ghost (%d, %d)" i j in
          if Samrai.Box.contains d ~i ~j then begin
            if not (in_i && in_j) then check_float cell (f i j) (Samrai.Patch.get p "u" ~i ~j)
          end
          else if in_i || in_j then
            check_float cell
              (f (clamp d.Samrai.Box.ilo d.Samrai.Box.ihi i) (clamp d.Samrai.Box.jlo d.Samrai.Box.jhi j))
              (Samrai.Patch.get p "u" ~i ~j)
        done
      done)
    h.Samrai.Hierarchy.patches

(* --- cleverleaf --- *)

let sod_init ~x ~y:_ =
  if x < 0.5 then (1.0, 0.0, 0.0, 1.0) else (0.125, 0.0, 0.0, 0.1)

let test_cleverleaf_conservation () =
  let t = Samrai.Cleverleaf.create ~nx:64 ~ny:8 ~lx:1.0 ~ly:0.125 () in
  Samrai.Cleverleaf.init t sod_init;
  let m0, _, _, e0 = Samrai.Cleverleaf.totals t in
  Samrai.Cleverleaf.run t 0.1;
  let m1, _, _, e1 = Samrai.Cleverleaf.totals t in
  Alcotest.(check bool) "mass conserved" true (Float.abs (m1 -. m0) < 1e-10);
  Alcotest.(check bool) "energy conserved" true (Float.abs (e1 -. e0) < 1e-10);
  Alcotest.(check bool) "steps taken" true (t.Samrai.Cleverleaf.steps > 10)

let test_cleverleaf_sod_structure () =
  let t = Samrai.Cleverleaf.create ~nx:128 ~ny:4 ~lx:1.0 ~ly:0.03125 () in
  Samrai.Cleverleaf.init t sod_init;
  Samrai.Cleverleaf.run t 0.15;
  let rho = Samrai.Cleverleaf.density_slice t in
  (* basic Sod structure at t=0.15: left state intact near x=0, right state
     near x=1, monotone-ish decrease through the fan/contact/shock *)
  Alcotest.(check bool) "left plateau" true (rho.(5) > 0.95);
  Alcotest.(check bool) "right plateau" true (rho.(122) < 0.15);
  Alcotest.(check bool) "intermediate states" true
    (rho.(64) > 0.2 && rho.(64) < 0.95);
  Alcotest.(check bool) "no nans" true (Array.for_all Float.is_finite rho)

let test_cleverleaf_positivity () =
  let t = Samrai.Cleverleaf.create ~nx:32 ~ny:32 ~lx:1.0 ~ly:1.0 () in
  (* strong blast in the centre *)
  Samrai.Cleverleaf.init t (fun ~x ~y ->
      let r2 = ((x -. 0.5) ** 2.0) +. ((y -. 0.5) ** 2.0) in
      if r2 < 0.01 then (1.0, 0.0, 0.0, 10.0) else (1.0, 0.0, 0.0, 0.1));
  Samrai.Cleverleaf.run t 0.05;
  List.iter
    (fun p ->
      Samrai.Patch.iter_interior p (fun ~i ~j ->
          Alcotest.(check bool) "rho > 0" true (Samrai.Patch.get p "rho" ~i ~j > 0.0)))
    t.Samrai.Cleverleaf.hier.Samrai.Hierarchy.patches

let test_cleverleaf_cfl_step () =
  (* Sod at rest: the fastest signal is the left state's sound speed
     sqrt(1.4), so the first step is 0.4 dx / sqrt 1.4 *)
  let t = Samrai.Cleverleaf.create ~nx:64 ~ny:8 ~lx:1.0 ~ly:0.125 () in
  Samrai.Cleverleaf.init t sod_init;
  let dt = Samrai.Cleverleaf.step t in
  Alcotest.(check (float 1e-15)) "dt at CFL 0.4"
    (0.4 *. (1.0 /. 64.0) /. sqrt 1.4) dt;
  Alcotest.(check (float 0.0)) "time advanced by dt" dt
    t.Samrai.Cleverleaf.time;
  Alcotest.(check int) "one step" 1 t.Samrai.Cleverleaf.steps

let test_cleverleaf_run_stops_past_tstop () =
  (* [run] takes whole steps and stops at the first one that reaches the
     stop time: the same steps as a hand loop on a twin *)
  let mk () =
    let t = Samrai.Cleverleaf.create ~nx:32 ~ny:4 ~lx:1.0 ~ly:0.125 () in
    Samrai.Cleverleaf.init t sod_init;
    t
  in
  let t = mk () and twin = mk () in
  Samrai.Cleverleaf.run t 0.02;
  while twin.Samrai.Cleverleaf.time < 0.02 do
    ignore (Samrai.Cleverleaf.step twin)
  done;
  Alcotest.(check bool) "more than one step" true (t.Samrai.Cleverleaf.steps > 1);
  Alcotest.(check int) "steps" twin.Samrai.Cleverleaf.steps
    t.Samrai.Cleverleaf.steps;
  Alcotest.(check (float 0.0)) "time" twin.Samrai.Cleverleaf.time
    t.Samrai.Cleverleaf.time;
  Samrai.Cleverleaf.run t 0.0;
  Alcotest.(check int) "no step once past tstop" twin.Samrai.Cleverleaf.steps
    t.Samrai.Cleverleaf.steps

let test_cleverleaf_step_work_pricing () =
  (* Table 5's shape: full node ~7x, single P9 vs single V100 ~15x *)
  let (fc, fg), (sc, sg) =
    Samrai.Cleverleaf.table5_times ~cells:4_000_000 ~steps:100
  in
  let full = fc /. fg and single = sc /. sg in
  Alcotest.(check bool) "full node speedup in 5-10x band" true
    (full > 5.0 && full < 10.0);
  Alcotest.(check bool) "single device speedup in 10-20x band" true
    (single > 10.0 && single < 20.0);
  Alcotest.(check bool) "single ratio exceeds full-node ratio" true
    (single > full)

let prop_box_split_total =
  QCheck.Test.make ~name:"box split preserves cells" ~count:100
    QCheck.(quad (int_range 1 40) (int_range 1 40) (int_range 1 8) (int_range 0 100))
    (fun (ni, nj, n, off) ->
      let b = Samrai.Box.make ~ilo:off ~jlo:(-off) ~ihi:(off + ni - 1) ~jhi:(-off + nj - 1) in
      let parts = Samrai.Box.split b n in
      List.fold_left (fun a p -> a + Samrai.Box.size p) 0 parts = Samrai.Box.size b)

let () =
  Alcotest.run "samrai"
    [
      ( "box",
        [
          Alcotest.test_case "basics" `Quick test_box_basics;
          Alcotest.test_case "intersect" `Quick test_box_intersect;
          Alcotest.test_case "split" `Quick test_box_split_covers;
          QCheck_alcotest.to_alcotest prop_box_split_total;
        ] );
      ( "patch",
        [
          Alcotest.test_case "fields+ghosts" `Quick test_patch_fields_and_ghosts;
          Alcotest.test_case "ghost exchange" `Quick test_patch_ghost_exchange;
          Alcotest.test_case "pool amortization" `Quick test_patch_pool_amortization;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "fill ghosts" `Quick test_hierarchy_fill_ghosts;
        ] );
      ( "cleverleaf",
        [
          Alcotest.test_case "conservation" `Quick test_cleverleaf_conservation;
          Alcotest.test_case "sod structure" `Quick test_cleverleaf_sod_structure;
          Alcotest.test_case "positivity" `Quick test_cleverleaf_positivity;
          Alcotest.test_case "cfl step" `Quick test_cleverleaf_cfl_step;
          Alcotest.test_case "run stops past tstop" `Quick test_cleverleaf_run_stops_past_tstop;
          Alcotest.test_case "step work pricing" `Quick test_cleverleaf_step_work_pricing;
        ] );
    ]

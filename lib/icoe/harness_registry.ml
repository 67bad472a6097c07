(* The one table every dispatcher uses: bin/icoe_report, bench/main and
   the tests all resolve harnesses here. Order is presentation order —
   tables and figures first (paper numbering), then the per-activity
   studies, ablations last. *)

let pool =
  List.concat
    [
      Harness_table1.harnesses;
      Harness_lda.harnesses;
      Harness_havoq.harnesses;
      Harness_dlearn.harnesses;
      Harness_paradyn.harnesses;
      Harness_mfem.harnesses;
      Harness_samrai.harnesses;
      Harness_vbl.harnesses;
      Harness_cretin.harnesses;
      Harness_ddcmd.harnesses;
      Harness_sw4.harnesses;
      Harness_opt.harnesses;
      Harness_hwsim.harnesses;
      Harness_cardioid.harnesses;
      Harness_hypre.harnesses;
      Harness_fault.harnesses;
      Harness_svc.harnesses;
      Harness_topo.harnesses;
      Harness_tune.harnesses;
      Harness_ablations.harnesses;
    ]

let order =
  [
    "table1"; "fig2"; "table2"; "table3"; "fig3"; "fig6"; "fig8"; "table4";
    "table5"; "fig9"; "cretin"; "md"; "sw4"; "opt"; "kavg"; "gpudirect";
    "cardioid"; "hypre"; "resilience"; "svc"; "topo"; "tune"; "ablations";
  ]

let all =
  let lookup id =
    match List.find_opt (fun h -> h.Harness.id = id) pool with
    | Some h -> h
    | None -> invalid_arg ("Harness_registry: no harness registered for " ^ id)
  in
  let ordered = List.map lookup order in
  let extra =
    List.filter (fun h -> not (List.mem h.Harness.id order)) pool
  in
  ordered @ extra

let ids () = List.map (fun h -> h.Harness.id) all

let find id = List.find_opt (fun h -> h.Harness.id = id) all

(** Harnesses carrying a tag, e.g. ["figure"], ["activity:mfem"]. *)
let with_tag tag = List.filter (fun h -> List.mem tag h.Harness.tags) all

let traced () = with_tag "traced"

let run_all () =
  String.concat "\n"
    (List.map (fun h -> (h.Harness.run ()).Harness.report) all)

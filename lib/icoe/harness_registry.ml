(* The one table every dispatcher uses: bin/icoe_report, bench/main and
   the tests all resolve harnesses here. Order is presentation order —
   tables and figures first (paper numbering), then the per-activity
   studies, ablations last. *)

let all =
  [
    Harness_table1.harness; Harness_lda.harness; Harness_havoq.harness;
    Harness_dlearn.table3; Harness_dlearn.fig3; Harness_paradyn.harness;
    Harness_mfem.fig8; Harness_mfem.table4; Harness_samrai.harness;
    Harness_vbl.harness; Harness_cretin.harness; Harness_ddcmd.harness;
    Harness_sw4.harness; Harness_opt.harness; Harness_dlearn.kavg;
    Harness_hwsim.harness; Harness_cardioid.harness; Harness_hypre.harness;
    Harness_fault.harness; Harness_svc.harness; Harness_topo.harness;
    Harness_tune.harness; Harness_ablations.harness;
  ]

let ids () = List.map (fun h -> h.Harness.id) all

let find id = List.find_opt (fun h -> h.Harness.id = id) all

(** Harnesses carrying a tag, e.g. ["figure"], ["activity:mfem"]. *)
let with_tag tag = List.filter (fun h -> List.mem tag h.Harness.tags) all

let traced () = with_tag "traced"

let run_all () =
  String.concat "\n"
    (List.map (fun h -> (h.Harness.run ()).Harness.report) all)

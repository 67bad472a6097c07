(** The Table 1 activity registry: the nine completed iCoE activities,
    their science areas, and programming-model approaches, linked to the
    modules of this reproduction that implement them. *)

type activity = {
  name : string;
  science_area : string;
  base_language : string;
  approaches : string list;  (** explored; final ones first *)
  modules : string list;  (** OCaml modules implementing the activity here *)
}

let activities =
  [
    {
      name = "Cardioid";
      science_area = "Heart Modeling";
      base_language = "C++";
      approaches = [ "DSL"; "CUDA"; "OpenMP" ];
      modules = [ "Cardioid.Melodee"; "Cardioid.Ionic"; "Cardioid.Monodomain" ];
    };
    {
      name = "Cretin";
      science_area = "Non-LTE Atomic Kinetics";
      base_language = "Fortran";
      approaches = [ "OpenACC"; "CUDA" ];
      modules = [ "Cretin.Atomic"; "Cretin.Ratematrix"; "Cretin.Minikin" ];
    };
    {
      name = "ParaDyn";
      science_area = "Dislocation Dynamics";
      base_language = "Fortran";
      approaches = [ "OpenMP"; "OpenACC" ];
      modules = [ "Paradyn.Ir"; "Paradyn.Passes"; "Paradyn.Interp" ];
    };
    {
      name = "Molecular Dynamics (MD)";
      science_area = "Molecular Dynamics";
      base_language = "C";
      approaches = [ "CUDA" ];
      modules = [ "Ddcmd.Engine"; "Ddcmd.Potential"; "Ddcmd.Perf" ];
    };
    {
      name = "Seismic (SW4)";
      science_area = "Earthquakes";
      base_language = "Fortran ported to C++";
      approaches = [ "RAJA"; "CUDA" ];
      modules = [ "Sw4.Elastic"; "Sw4.Solver"; "Sw4.Scenario" ];
    };
    {
      name = "Virtual Beamline (VBL)";
      science_area = "Laser Propagation";
      base_language = "C++";
      approaches = [ "RAJA" ];
      modules = [ "Vbl.Beam"; "Vbl.Propagate"; "Fftlib.Fft" ];
    };
    {
      name = "Tools and Libraries";
      science_area = "Math Frameworks";
      base_language = "C/C++";
      approaches = [ "DSL"; "RAJA"; "Kokkos"; "OCCA"; "OpenMP"; "CUDA" ];
      modules =
        [ "Hypre.Boomeramg"; "Hypre.Pfmg"; "Sundials.Cvode"; "Mfem.Diffusion";
          "Mfem.Lor"; "Samrai.Hierarchy"; "Samrai.Cleverleaf" ];
    };
    {
      name = "Data Science";
      science_area = "DL and Data Analytics";
      base_language = "PyTorch, Spark, C++";
      approaches = [ "Accelerated PyTorch"; "Spark" ];
      modules =
        [ "Sparkle.Cluster"; "Lda.Vem"; "Dlearn.Distributed"; "Dlearn.Videonet";
          "Dlearn.Lbann"; "Havoq.Bfs" ];
    };
    {
      name = "Optimization Framework (Opt)";
      science_area = "Design Optimization";
      base_language = "C++";
      approaches = [ "CUDA"; "Job scheduler simulator" ];
      modules = [ "Opt.Topopt"; "Opt.Scheduler" ];
    };
  ]

let table1 () =
  let t =
    Icoe_util.Table.create ~title:"Table 1: Completed iCoE activities"
      ~aligns:[| Icoe_util.Table.Left; Icoe_util.Table.Left; Icoe_util.Table.Left; Icoe_util.Table.Left |]
      [ "Activity"; "Science Area"; "Base Language"; "Approach(es)" ]
  in
  List.iter
    (fun a ->
      Icoe_util.Table.add_row t
        [ a.name; a.science_area; a.base_language; String.concat ", " a.approaches ])
    activities;
  t

(* test_dlearn.ml opens Dlearn; here that is the baseline-only copy. *)
include Dlearn_baseline

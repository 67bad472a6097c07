(** Table 1: the completed iCoE activity registry rendered as a table. *)

open Icoe_util

let harness =
  Harness.make ~id:"table1"
    ~description:"Completed iCoE activities and approaches"
    ~tags:[ "table"; "activity:icoe" ]
    (fun () -> Table.render (Registry.table1 ()))

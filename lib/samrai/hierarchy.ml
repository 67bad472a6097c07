(** Patch hierarchy: one level of patches tiling a base domain. Patch
    data is allocated through the pool, so the Umpire amortization shows
    up in the simulated clock. *)

type t = { domain : Box.t; patches : Patch.t list }

let create ~fields domain =
  let pool = Prog.Pool.create "samrai" in
  let clock = Hwsim.Clock.create () in
  let patches =
    List.map
      (fun b ->
        let p = Patch.create ~ghosts:1 ~pool ~clock b in
        List.iter (Patch.alloc_field p) fields;
        p)
      (Box.split domain 4)
  in
  { domain; patches }

let total_cells t = List.fold_left (fun acc p -> acc + Box.size p.Patch.box) 0 t.patches

(** Exchange ghost data between sibling patches and apply reflecting
    physical boundaries. *)
let fill_ghosts t name =
  List.iter
    (fun p ->
      List.iter (fun src -> if src != p then Patch.fill_ghosts_from p name ~src) t.patches;
      Patch.fill_physical_ghosts p name ~domain:t.domain)
    t.patches

(** Patch hierarchy: levels of patch sets over a base domain. Level 0
    tiles the whole domain. Patch data is allocated through the pool, so
    the Umpire amortization shows up in the simulated clock. *)

type level = { patches : Patch.t list; ratio : int  (** vs level 0 *) }

type t = {
  domain : Box.t;  (** level-0 index space *)
  levels : level array;
}

let create ?(ghosts = 2) ?(patches_per_level = 4) ~fields domain =
  let pool = Prog.Pool.create "samrai" in
  let clock = Hwsim.Clock.create () in
  let boxes = Box.split domain patches_per_level in
  let patches =
    List.map
      (fun b ->
        let p = Patch.create ~ghosts ~pool ~clock b in
        List.iter (Patch.alloc_field p) fields;
        p)
      boxes
  in
  { domain; levels = [| { patches; ratio = 1 } |] }

let num_levels t = Array.length t.levels
let level t i = t.levels.(i)

(** Total interior cells across a level. *)
let level_cells lvl =
  List.fold_left (fun acc p -> acc + Box.size p.Patch.box) 0 lvl.patches

let total_cells t =
  Array.fold_left (fun acc l -> acc + level_cells l) 0 t.levels

(** Exchange ghost data between sibling patches of a level and apply
    reflecting physical boundaries. *)
let fill_level_ghosts t lvl_idx name =
  let lvl = t.levels.(lvl_idx) in
  let domain = Box.refine t.domain lvl.ratio in
  List.iter
    (fun p ->
      List.iter
        (fun src -> if src != p then Patch.fill_ghosts_from p name ~src)
        lvl.patches;
      Patch.fill_physical_ghosts p name ~domain)
    lvl.patches

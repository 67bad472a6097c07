(** Patch hierarchy: levels of refined patch sets over a base domain.

    Level 0 tiles the whole domain; finer levels cover flagged subregions
    at [ratio]x resolution. Regridding reallocates patch data — through the
    pool, so the Umpire amortization shows up in the simulated clock. *)

type level = { patches : Patch.t list; ratio : int  (** vs level 0 *) }

type t = {
  domain : Box.t;  (** level-0 index space *)
  mutable levels : level array;
  pool : Prog.Pool.t;
  clock : Hwsim.Clock.t;
  ghosts : int;
  fields : string list;
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
  {
    domain;
    levels = [| { patches; ratio = 1 } |];
    pool;
    clock;
    ghosts;
    fields;
  }

let num_levels t = Array.length t.levels
let level t i = t.levels.(i)

(** Total interior cells across a level. *)
let level_cells lvl =
  List.fold_left (fun acc p -> acc + Box.size p.Patch.box) 0 lvl.patches

let total_cells t =
  Array.fold_left (fun acc l -> acc + level_cells l) 0 t.levels

(** Add a refined level covering [region] (level-0 coordinates) at
    [ratio] x the resolution of the current finest level. *)
let add_refined_level ?(patches = 2) t ~region ~ratio =
  let finest = t.levels.(num_levels t - 1) in
  let new_ratio = finest.ratio * ratio in
  let fine_region = Box.refine region new_ratio in
  let boxes = Box.split fine_region patches in
  let ps =
    List.map
      (fun b ->
        let p = Patch.create ~ghosts:t.ghosts ~pool:t.pool ~clock:t.clock b in
        List.iter (Patch.alloc_field p) t.fields;
        p)
      boxes
  in
  t.levels <- Array.append t.levels [| { patches = ps; ratio = new_ratio } |]

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

(** Conservative average of fine-level data onto the underlying coarse
    cells (restriction after a fine-level step). *)
let coarsen_field t ~fine_idx ~coarse_idx name =
  if not (fine_idx > coarse_idx) then
    invalid_arg
      (Printf.sprintf "Hierarchy.coarsen_field: fine_idx = %d is not above coarse_idx = %d"
         fine_idx coarse_idx);
  let fine = t.levels.(fine_idx) and coarse = t.levels.(coarse_idx) in
  let r = fine.ratio / coarse.ratio in
  let r2 = float_of_int (r * r) in
  List.iter
    (fun (cp : Patch.t) ->
      List.iter
        (fun (fp : Patch.t) ->
          let fine_in_coarse = Box.coarsen fp.Patch.box r in
          match Box.intersect cp.Patch.box fine_in_coarse with
          | None -> ()
          | Some ov ->
              for j = ov.Box.jlo to ov.Box.jhi do
                for i = ov.Box.ilo to ov.Box.ihi do
                  let s = ref 0.0 in
                  for fj = j * r to (j * r) + r - 1 do
                    for fi = i * r to (i * r) + r - 1 do
                      s := !s +. Patch.get fp name ~i:fi ~j:fj
                    done
                  done;
                  Patch.set cp name ~i ~j (!s /. r2)
                done
              done)
        fine.patches)
    coarse.patches

(** Gradient-based cell tagging: flag interior cells of [lvl_idx] where
    the magnitude of the central-difference gradient of [name] exceeds
    [threshold]. Returns the flagged cells (level coordinates). *)
let tag_cells t ~lvl_idx ~name ~threshold =
  let lvl = t.levels.(lvl_idx) in
  let tags = ref [] in
  List.iter
    (fun (p : Patch.t) ->
      Patch.iter_interior p (fun ~i ~j ->
          let b = p.Patch.box in
          if
            i > b.Box.ilo && i < b.Box.ihi && j > b.Box.jlo && j < b.Box.jhi
          then begin
            let gx = (Patch.get p name ~i:(i + 1) ~j -. Patch.get p name ~i:(i - 1) ~j) /. 2.0 in
            let gy = (Patch.get p name ~i ~j:(j + 1) -. Patch.get p name ~i ~j:(j - 1)) /. 2.0 in
            if sqrt ((gx *. gx) +. (gy *. gy)) > threshold then
              tags := (i, j) :: !tags
          end))
    lvl.patches;
  !tags

(** Bounding box of a tag set, grown by [pad] cells and clipped to the
    level's index space; [None] when nothing is flagged. *)
let tag_bounding_box t ~lvl_idx ?(pad = 2) tags =
  match tags with
  | [] -> None
  | (i0, j0) :: rest ->
      let ilo = ref i0 and ihi = ref i0 and jlo = ref j0 and jhi = ref j0 in
      List.iter
        (fun (i, j) ->
          ilo := min !ilo i;
          ihi := max !ihi i;
          jlo := min !jlo j;
          jhi := max !jhi j)
        rest;
      let lvl = t.levels.(lvl_idx) in
      let dom = Box.refine t.domain lvl.ratio in
      Some
        (Box.make
           ~ilo:(max dom.Box.ilo (!ilo - pad))
           ~jlo:(max dom.Box.jlo (!jlo - pad))
           ~ihi:(min dom.Box.ihi (!ihi + pad))
           ~jhi:(min dom.Box.jhi (!jhi + pad)))

(** Tag-and-regrid: flag steep gradients of [name] on the finest level and
    add a refined level over their bounding box. Returns true when a new
    level was created. The (re)allocation of the new level's patch data
    runs through the Umpire pool, as the paper's SAMRAI port does. *)
let regrid_on_gradient ?(ratio = 2) ?(patches = 2) ?(pad = 2) t ~name
    ~threshold =
  let lvl_idx = num_levels t - 1 in
  let tags = tag_cells t ~lvl_idx ~name ~threshold in
  match tag_bounding_box t ~lvl_idx ~pad tags with
  | None -> false
  | Some fine_box ->
      (* convert from finest-level coordinates back to level-0 space *)
      let lvl = t.levels.(lvl_idx) in
      let region = Box.coarsen fine_box lvl.ratio in
      add_refined_level ~patches t ~region ~ratio;
      true

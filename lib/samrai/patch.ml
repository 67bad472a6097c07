(** Patches: a box plus named cell-centered data arrays with ghost cells,
    allocated from an Umpire-style pool so repeated allocations are
    amortized (the Sec 4.10.5 performance ingredient). *)

type t = {
  box : Box.t;  (** interior cells *)
  ghosts : int;
  gbox : Box.t;  (** [box] grown by [ghosts]: the extent of each field *)
  data : (string, float array) Hashtbl.t;
  pool : Prog.Pool.t option;
  clock : Hwsim.Clock.t option;
}

let create ?(ghosts = 2) ?pool ?clock box =
  {
    box;
    ghosts;
    gbox = Box.grow box ghosts;
    data = Hashtbl.create 8;
    pool;
    clock;
  }

let alloc_field t name =
  if not (Hashtbl.mem t.data name) then begin
    let n = Box.size t.gbox in
    (match (t.pool, t.clock) with
    | Some p, Some c -> Prog.Pool.alloc p ~bytes:(8.0 *. float_of_int n) ~clock:c
    | _ -> ());
    Hashtbl.add t.data name (Array.make n 0.0)
  end

(* [Hashtbl.find] rather than [find_opt]: the per-cell get/set path
   allocates no option *)
let field t name =
  match Hashtbl.find t.data name with
  | a -> a
  | exception Not_found -> invalid_arg ("Patch.field: no field " ^ name)

(* flat index of (i,j) in the ghosted array; [fn] names the caller in
   the message of an out-of-box cell *)
let index fn t ~i ~j =
  let g = t.gbox in
  if not (Box.contains g ~i ~j) then
    invalid_arg
      (Printf.sprintf "Patch.%s: cell (%d, %d) outside the ghosted box [%d, %d] x [%d, %d]"
         fn i j g.Box.ilo g.Box.ihi g.Box.jlo g.Box.jhi);
  i - g.Box.ilo + (Box.ni g * (j - g.Box.jlo))

let get t name ~i ~j = (field t name).(index "get" t ~i ~j)
let set t name ~i ~j v = (field t name).(index "set" t ~i ~j) <- v

(** Iterate over interior cells. *)
let iter_interior t f =
  for j = t.box.Box.jlo to t.box.Box.jhi do
    for i = t.box.Box.ilo to t.box.Box.ihi do
      f ~i ~j
    done
  done

(** Fill this patch's ghost cells of [name] from a neighbour patch's
    interior where they overlap. *)
let fill_ghosts_from t name ~(src : t) =
  match Box.intersect t.gbox src.box with
  | None -> ()
  | Some ov ->
      for j = ov.Box.jlo to ov.Box.jhi do
        for i = ov.Box.ilo to ov.Box.ihi do
          if not (Box.contains t.box ~i ~j) then
            set t name ~i ~j (get src name ~i ~j)
        done
      done

(** Reflecting (zero-gradient) physical boundary fill on the domain edge. *)
let fill_physical_ghosts t name ~domain =
  let g = t.gbox in
  for j = g.Box.jlo to g.Box.jhi do
    for i = g.Box.ilo to g.Box.ihi do
      if not (Box.contains t.box ~i ~j) && not (Box.contains domain ~i ~j) then begin
        let ic = min (max i domain.Box.ilo) domain.Box.ihi in
        let jc = min (max j domain.Box.jlo) domain.Box.jhi in
        if Box.contains t.box ~i:ic ~j:jc then
          set t name ~i ~j (get t name ~i:ic ~j:jc)
      end
    done
  done

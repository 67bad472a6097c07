(** Linked-cell neighbour search: O(N) pair enumeration for short-range
    potentials under periodic boundaries. *)

module Fbuf = Icoe_util.Fbuf

type t = {
  ncell : int;  (** cells per dimension *)
  cell_size : float;
  head : int array;  (** first particle in each cell, -1 if empty *)
  next : int array;  (** next particle in same cell, -1 terminates *)
}

(* Coordinate -> cell index along one axis. Clamped on BOTH ends:
   [min] catches v = box (Float.rem can return the box edge for a tiny
   negative input), [max 0] catches unwrapped slightly-negative
   coordinates — without it a caller that writes positions directly and
   bins before wrapping indexes head.(-1). *)
(* [@inline always]: a float argument to a non-inlined call is boxed
   without flambda, and build calls this three times per particle *)
let[@inline always] cell_coord ~ncell ~cell_size v =
  min (ncell - 1) (max 0 (int_of_float (v /. cell_size)))

let build ?prev (p : Particles.t) ~cutoff =
  (* finer than ~cbrt(n) cells per side only adds empty-cell overhead *)
  let cap =
    max 3 (int_of_float (Float.ceil (float_of_int p.Particles.n ** (1.0 /. 3.0))))
  in
  let ncell = max 1 (min cap (int_of_float (p.Particles.box /. cutoff))) in
  let cell_size = p.Particles.box /. float_of_int ncell in
  (* reuse the previous build's arrays when the geometry still matches:
     steady-state rebuilds (every force call) then allocate nothing but
     this record *)
  let head, next =
    match prev with
    | Some t
      when t.ncell = ncell
           && Array.length t.next = p.Particles.n ->
        Array.fill t.head 0 (Array.length t.head) (-1);
        (t.head, t.next)
    | _ -> (Array.make (ncell * ncell * ncell) (-1), Array.make p.Particles.n (-1))
  in
  (* flat loop, no helper closures: a per-particle closure (or a
     non-inlined call taking the coordinate) allocates in what must be a
     steady-state-free rebuild *)
  let xb = p.Particles.x and yb = p.Particles.y and zb = p.Particles.z in
  for i = 0 to p.Particles.n - 1 do
    let cx = cell_coord ~ncell ~cell_size (Fbuf.get xb i)
    and cy = cell_coord ~ncell ~cell_size (Fbuf.get yb i)
    and cz = cell_coord ~ncell ~cell_size (Fbuf.get zb i) in
    let c = cx + (ncell * (cy + (ncell * cz))) in
    next.(i) <- head.(c);
    head.(c) <- i
  done;
  { ncell; cell_size; head; next }

(** Iterate [f i j] over each unordered pair within [cutoff] using the
    half-shell of neighbouring cells. When the box is under 3 cells per
    side the cell trick degenerates; fall back to all-pairs. *)
let iter_pairs t (p : Particles.t) ~cutoff f =
  let c2 = cutoff *. cutoff in
  if t.ncell < 3 then begin
    for i = 0 to p.Particles.n - 2 do
      for j = i + 1 to p.Particles.n - 1 do
        if Particles.dist2 p i j <= c2 then f i j
      done
    done
  end
  else begin
    let nc = t.ncell in
    let wrap c = ((c mod nc) + nc) mod nc in
    for cz = 0 to nc - 1 do
      for cy = 0 to nc - 1 do
        for cx = 0 to nc - 1 do
          let c = cx + (nc * (cy + (nc * cz))) in
          (* pairs within the same cell *)
          let i = ref t.head.(c) in
          while !i >= 0 do
            let j = ref t.next.(!i) in
            while !j >= 0 do
              if Particles.dist2 p !i !j <= c2 then f !i !j;
              j := t.next.(!j)
            done;
            i := t.next.(!i)
          done;
          (* half shell of 13 neighbour cells *)
          List.iter
            (fun (dx, dy, dz) ->
              let c' =
                wrap (cx + dx) + (nc * (wrap (cy + dy) + (nc * wrap (cz + dz))))
              in
              let i = ref t.head.(c) in
              while !i >= 0 do
                let j = ref t.head.(c') in
                while !j >= 0 do
                  if Particles.dist2 p !i !j <= c2 then f !i !j;
                  j := t.next.(!j)
                done;
                i := t.next.(!i)
              done)
            [
              (1, 0, 0); (0, 1, 0); (0, 0, 1);
              (1, 1, 0); (1, -1, 0); (1, 0, 1); (1, 0, -1);
              (0, 1, 1); (0, 1, -1);
              (1, 1, 1); (1, 1, -1); (1, -1, 1); (1, -1, -1);
            ]
        done
      done
    done
  end

(** Index boxes: the SAMRAI unit of structured-mesh bookkeeping. *)

type t = { ilo : int; jlo : int; ihi : int; jhi : int }

let make ~ilo ~jlo ~ihi ~jhi =
  if not (ihi >= ilo && jhi >= jlo) then
    invalid_arg
      (Printf.sprintf "Box.make: [%d, %d] x [%d, %d] is inverted" ilo ihi jlo jhi);
  { ilo; jlo; ihi; jhi }

let ni t = t.ihi - t.ilo + 1
let nj t = t.jhi - t.jlo + 1
let size t = ni t * nj t

let contains t ~i ~j = i >= t.ilo && i <= t.ihi && j >= t.jlo && j <= t.jhi

let intersect a b =
  let ilo = max a.ilo b.ilo and jlo = max a.jlo b.jlo in
  let ihi = min a.ihi b.ihi and jhi = min a.jhi b.jhi in
  if ihi >= ilo && jhi >= jlo then Some { ilo; jlo; ihi; jhi } else None

(** Grow by [n] cells in every direction (ghost region). *)
let grow t n = { ilo = t.ilo - n; jlo = t.jlo - n; ihi = t.ihi + n; jhi = t.jhi + n }

(** Split into at most [n] roughly equal sub-boxes along the long axis. *)
let split t n =
  if n <= 1 then [ t ]
  else if ni t >= nj t then
    let w = ni t in
    let step = max 1 (w / n) in
    let rec go lo acc =
      if lo > t.ihi then List.rev acc
      else
        let hi = min t.ihi (lo + step - 1) in
        let hi = if t.ihi - hi < step / 2 then t.ihi else hi in
        go (hi + 1) ({ t with ilo = lo; ihi = hi } :: acc)
    in
    go t.ilo []
  else
    let w = nj t in
    let step = max 1 (w / n) in
    let rec go lo acc =
      if lo > t.jhi then List.rev acc
      else
        let hi = min t.jhi (lo + step - 1) in
        let hi = if t.jhi - hi < step / 2 then t.jhi else hi in
        go (hi + 1) ({ t with jlo = lo; jhi = hi } :: acc)
    in
    go t.jlo []

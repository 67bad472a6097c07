(** 1D nodal (Lagrange) bases on GLL points, tabulated at quadrature
    points. These [b] / [g] matrices are the only basis data the
    sum-factorized operators touch — the tensor-product structure does the
    rest. *)

type t = {
  p : int;  (** polynomial order *)
  nodes : float array;  (** p+1 GLL nodal points on [-1,1] *)
  qpts : float array;  (** nq quadrature points *)
  qwts : float array;
  b : float array array;  (** b.(q).(i) = phi_i(x_q), nq x (p+1) *)
  g : float array array;  (** g.(q).(i) = phi_i'(x_q) *)
}

(* Lagrange basis i on [nodes] evaluated at x, plus derivative. *)
let lagrange_eval nodes i x =
  let n = Array.length nodes in
  let v = ref 1.0 in
  for j = 0 to n - 1 do
    if j <> i then v := !v *. ((x -. nodes.(j)) /. (nodes.(i) -. nodes.(j)))
  done;
  let dv = ref 0.0 in
  for k = 0 to n - 1 do
    if k <> i then begin
      let term = ref (1.0 /. (nodes.(i) -. nodes.(k))) in
      for j = 0 to n - 1 do
        if j <> i && j <> k then
          term := !term *. ((x -. nodes.(j)) /. (nodes.(i) -. nodes.(j)))
      done;
      dv := !dv +. !term
    end
  done;
  (!v, !dv)

(** Basis of order [p] tabulated at an [nq]-point Gauss rule
    (default nq = p+2, full accuracy for the diffusion bilinear form). *)
let create ?nq p =
  if not (p >= 1) then
    invalid_arg (Printf.sprintf "Basis.create: order p = %d is not >= 1" p);
  let nq = match nq with Some n -> n | None -> p + 2 in
  let nodes, _ = Quadrature.gauss_lobatto (p + 1) in
  let qpts, qwts = Quadrature.gauss_legendre nq in
  let b = Array.make_matrix nq (p + 1) 0.0 in
  let g = Array.make_matrix nq (p + 1) 0.0 in
  for q = 0 to nq - 1 do
    for i = 0 to p do
      let v, dv = lagrange_eval nodes i qpts.(q) in
      b.(q).(i) <- v;
      g.(q).(i) <- dv
    done
  done;
  { p; nodes; qpts; qwts; b; g }

(** Collocation variant: quadrature at the GLL nodes themselves, which
    makes the mass matrix diagonal (spectral-element lumping). *)
let create_collocated p =
  if not (p >= 1) then
    invalid_arg
      (Printf.sprintf "Basis.create_collocated: order p = %d is not >= 1" p);
  let nodes, wts = Quadrature.gauss_lobatto (p + 1) in
  let nq = p + 1 in
  let b = Array.make_matrix nq (p + 1) 0.0 in
  let g = Array.make_matrix nq (p + 1) 0.0 in
  for q = 0 to nq - 1 do
    for i = 0 to p do
      let v, dv = lagrange_eval nodes i nodes.(q) in
      b.(q).(i) <- v;
      g.(q).(i) <- dv
    done
  done;
  { p; nodes; qpts = Array.copy nodes; qwts = wts; b; g }

let nq t = Array.length t.qpts

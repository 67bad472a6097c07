(** The elastic-wave spatial operator: 4th-order central differences on the
    displacement formulation,

        rho u_tt = div sigma,   sigma = lambda tr(eps) I + 2 mu eps.

    Stresses are evaluated at every grid point from 4th-order first
    derivatives of displacement, then the stress divergence is taken with
    the same stencil. This is the sw4lite kernel shape: wide stencils,
    bandwidth-heavy, the paper's shared-memory optimization target.

    All fields live in {!Icoe_util.Fbuf} buffers (flat float64
    Bigarrays): the stencil loops below are single unchecked loads and
    stores, allocate nothing, and the arithmetic is operation-for-
    operation the same as the boxed layout it replaced — so results are
    bit-identical. *)

module Fbuf = Icoe_util.Fbuf

(* 4th-order first derivative along x of field f at (i,j) *)
let[@inline always] d1x (g : Grid.t) (f : Fbuf.t) i j =
  let k = Grid.idx g i j in
  (8.0 *. (Fbuf.get f (k + 1) -. Fbuf.get f (k - 1))
  -. (Fbuf.get f (k + 2) -. Fbuf.get f (k - 2)))
  /. (12.0 *. g.Grid.h)

let[@inline always] d1y (g : Grid.t) (f : Fbuf.t) i j =
  let k = Grid.idx g i j in
  let nx = g.Grid.nx in
  (8.0 *. (Fbuf.get f (k + nx) -. Fbuf.get f (k - nx))
  -. (Fbuf.get f (k + (2 * nx)) -. Fbuf.get f (k - (2 * nx))))
  /. (12.0 *. g.Grid.h)

type scratch = {
  sxx : Fbuf.t;
  syy : Fbuf.t;
  sxy : Fbuf.t;
}

let make_scratch (g : Grid.t) =
  let n = g.Grid.nx * g.Grid.ny in
  { sxx = Fbuf.create n; syy = Fbuf.create n; sxy = Fbuf.create n }

(** Margin of cells near the boundary where the wide stencil can't reach;
    displacements there are held fixed (supergrid damping handles
    reflections). *)
let margin = 4

(** Compute accelerations (ax, ay) from displacements (ux, uy).
    All buffers are full-grid; only the interior beyond [margin] is
    written. *)
let stress_rows (g : Grid.t) s ~ux ~uy jlo jhi =
  let nx = g.Grid.nx in
  let lambda = g.Grid.lambda and mu_a = g.Grid.mu in
  for j = jlo to jhi - 1 do
    for i = 2 to nx - 3 do
      let k = Grid.idx g i j in
      let dux_dx = d1x g ux i j and dux_dy = d1y g ux i j in
      let duy_dx = d1x g uy i j and duy_dy = d1y g uy i j in
      let lam = Array.unsafe_get lambda k and mu = Array.unsafe_get mu_a k in
      Fbuf.set s.sxx k ((lam *. (dux_dx +. duy_dy)) +. (2.0 *. mu *. dux_dx));
      Fbuf.set s.syy k ((lam *. (dux_dx +. duy_dy)) +. (2.0 *. mu *. duy_dy));
      Fbuf.set s.sxy k (mu *. (dux_dy +. duy_dx))
    done
  done

let divergence_rows (g : Grid.t) s ~ax ~ay jlo jhi =
  let nx = g.Grid.nx in
  let rho = g.Grid.rho in
  for j = jlo to jhi - 1 do
    for i = margin to nx - 1 - margin do
      let k = Grid.idx g i j in
      let fx = d1x g s.sxx i j +. d1y g s.sxy i j in
      let fy = d1x g s.sxy i j +. d1y g s.syy i j in
      Fbuf.set ax k (fx /. Array.unsafe_get rho k);
      Fbuf.set ay k (fy /. Array.unsafe_get rho k)
    done
  done

(* Rows per pool chunk. A fixed constant (never derived from the pool
   size) keeps the chunk layout — and hence scheduling — deterministic;
   writes are row-disjoint, so results are bit-identical to the serial
   sweep for any ICOE_DOMAINS. *)
let row_chunk = 8

let acceleration (g : Grid.t) s ~ux ~uy ~ax ~ay =
  let ny = g.Grid.ny in
  (* stress pass: needs a 2-wide halo inside the boundary. The pass must
     complete before the divergence reads the stresses, hence two pooled
     sweeps with an implicit barrier between them. *)
  Icoe_par.Pool.parallel_for_chunks ~chunk:row_chunk ~lo:2 ~hi:(ny - 2)
    (fun jlo jhi -> stress_rows g s ~ux ~uy jlo jhi);
  (* divergence pass *)
  Icoe_par.Pool.parallel_for_chunks ~chunk:row_chunk ~lo:margin
    ~hi:(ny - margin)
    (fun jlo jhi -> divergence_rows g s ~ax ~ay jlo jhi)

(** Serial reference evaluation of the same operator (bit-identical to
    {!acceleration}; the agreement tests pin this down). *)
let acceleration_seq (g : Grid.t) s ~ux ~uy ~ax ~ay =
  let ny = g.Grid.ny in
  stress_rows g s ~ux ~uy 2 (ny - 2);
  divergence_rows g s ~ax ~ay margin (ny - margin)

(** Flop/byte volume of one full-grid acceleration evaluation over
    [points] grid points, used by the device pricing: two 4th-order
    stencil sweeps per point. *)
let work_of_points points =
  let n = float_of_int points in
  (* stress pass: 4 derivatives (7 flops) + 10 combine flops; divergence:
     4 derivatives + 4 flops; per point *)
  Hwsim.Kernel.make ~name:"sw4-rhs" ~launches:2 ~flops:(n *. 74.0)
    ~bytes:(n *. 8.0 *. 16.0) ()

let work (g : Grid.t) = work_of_points (g.Grid.nx * g.Grid.ny)

(** Gauss-Legendre and Gauss-Lobatto-Legendre rules on [-1, 1].

    GLL nodes double as the nodal points of the high-order bases (spectral
    element style); Gauss-Legendre is the integration rule for the partial
    assembly path. *)

(* Legendre polynomial P_n and derivative at x by recurrence. *)
let legendre n x =
  if n = 0 then (1.0, 0.0)
  else begin
    let p0 = ref 1.0 and p1 = ref x in
    for k = 2 to n do
      let fk = float_of_int k in
      let p2 =
        (((2.0 *. fk) -. 1.0) *. x *. !p1 -. ((fk -. 1.0) *. !p0)) /. fk
      in
      p0 := !p1;
      p1 := p2
    done;
    let dp = float_of_int n *. ((x *. !p1) -. !p0) /. ((x *. x) -. 1.0) in
    (!p1, dp)
  end

(** Gauss-Legendre points and weights, exact for degree 2n-1. *)
let gauss_legendre n =
  if not (n >= 1) then
    invalid_arg (Printf.sprintf "Quadrature.gauss_legendre: n = %d points, need >= 1" n);
  let pts = Array.make n 0.0 and wts = Array.make n 0.0 in
  for i = 0 to n - 1 do
    (* Chebyshev initial guess + Newton *)
    let x = ref (cos (Float.pi *. (float_of_int i +. 0.75) /. (float_of_int n +. 0.5))) in
    for _ = 1 to 100 do
      let p, dp = legendre n !x in
      x := !x -. (p /. dp)
    done;
    let _, dp = legendre n !x in
    pts.(n - 1 - i) <- !x;
    wts.(n - 1 - i) <- 2.0 /. ((1.0 -. (!x *. !x)) *. dp *. dp)
  done;
  (pts, wts)

(** Gauss-Lobatto-Legendre points (including +-1) and weights; n >= 2
    points, exact for degree 2n-3. *)
let gauss_lobatto n =
  if not (n >= 2) then
    invalid_arg (Printf.sprintf "Quadrature.gauss_lobatto: n = %d points, need >= 2" n);
  let pts = Array.make n 0.0 and wts = Array.make n 0.0 in
  pts.(0) <- -1.0;
  pts.(n - 1) <- 1.0;
  let m = n - 1 in
  (* interior GLL nodes are roots of P'_{n-1}; Newton from Chebyshev-like
     initial guesses *)
  for i = 1 to n - 2 do
    let x = ref (cos (Float.pi *. float_of_int i /. float_of_int m)) in
    for _ = 1 to 100 do
      (* f = P'_m(x); f' via the Legendre ODE:
         (1-x^2) P''_m = 2x P'_m - m(m+1) P_m *)
      let p, dp = legendre m !x in
      let ddp =
        ((2.0 *. !x *. dp) -. (float_of_int (m * (m + 1)) *. p))
        /. (1.0 -. (!x *. !x))
      in
      x := !x -. (dp /. ddp)
    done;
    pts.(n - 1 - i) <- !x
  done;
  Array.sort Float.compare pts;
  for i = 0 to n - 1 do
    let p, _ = legendre m pts.(i) in
    wts.(i) <- 2.0 /. (float_of_int (m * (m + 1)) *. p *. p)
  done;
  (pts, wts)

(* The BoomerAMG V-cycle that [Hypre.Boomeramg.v_cycle] replaced: fresh
   vectors on every level of every cycle (the l1-Jacobi residual, the
   restricted right-hand side, a zero coarse iterate, the prolonged
   correction), and a coarse solve through the bounds-checked
   [Linalg.Dense.get]. Its own LU factorization comes along, since
   [Linalg.Dense.lu] is abstract. Kept, without the metrics registry, as
   the bit-exact oracle of the in-place cycle; it reads only the
   hierarchy's operators, never its workspaces. *)

open Linalg

type lu = { lu : Dense.t; piv : int array }

let lu_factor t =
  let n = t.Dense.n in
  let a = Dense.copy t in
  let piv = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let p = ref k in
    let best = ref (Float.abs (Dense.get a k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Dense.get a i k) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Dense.Singular k);
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = Dense.get a k j in
        Dense.set a k j (Dense.get a !p j);
        Dense.set a !p j tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tp
    end;
    let akk = Dense.get a k k in
    for i = k + 1 to n - 1 do
      let lik = Dense.get a i k /. akk in
      Dense.set a i k lik;
      for j = k + 1 to n - 1 do
        Dense.set a i j (Dense.get a i j -. (lik *. Dense.get a k j))
      done
    done
  done;
  { lu = a; piv }

let lu_solve { lu = a; piv } b =
  let n = a.Dense.n in
  let x = Array.init n (fun i -> b.(piv.(i))) in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Dense.get a i j *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Dense.get a i j *. x.(j))
    done;
    x.(i) <- !s /. Dense.get a i i
  done;
  x

(* the coarsest operator's factorization, regularized like the setup's *)
let coarse_lu (t : Hypre.Boomeramg.t) =
  let levels = t.Hypre.Boomeramg.levels in
  let d = Csr.to_dense levels.(Array.length levels - 1).Hypre.Boomeramg.a in
  try lu_factor d
  with Dense.Singular _ ->
    let d = Dense.copy d in
    for i = 0 to d.Dense.m - 1 do
      Dense.update d i i (fun v -> v +. 1e-8)
    done;
    lu_factor d

let sweep (a : Csr.t) b x =
  let r = Vec.sub b (Csr.spmv a x) in
  for i = 0 to a.Csr.m - 1 do
    let l1 = ref 0.0 in
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      l1 := !l1 +. Float.abs (Icoe_util.Fbuf.get a.Csr.values k)
    done;
    if !l1 > 0.0 then x.(i) <- x.(i) +. (r.(i) /. !l1)
  done

let v_cycle (t : Hypre.Boomeramg.t) lu b x =
  let levels = t.Hypre.Boomeramg.levels in
  let nl = Array.length levels in
  let rec descend lvl b x =
    let l = levels.(lvl) in
    let a = l.Hypre.Boomeramg.a in
    if lvl = nl - 1 then begin
      let sol = lu_solve lu b in
      Array.blit sol 0 x 0 (Array.length sol)
    end
    else begin
      sweep a b x;
      let r = Vec.sub b (Csr.spmv a x) in
      let bc = Csr.spmv (Option.get l.Hypre.Boomeramg.r) r in
      let xc = Array.make (Array.length bc) 0.0 in
      descend (lvl + 1) bc xc;
      let corr = Csr.spmv (Option.get l.Hypre.Boomeramg.p) xc in
      Vec.axpy 1.0 corr x;
      sweep a b x
    end
  in
  descend 0 b x

let precond t lu r =
  let z = Array.make (Array.length r) 0.0 in
  v_cycle t lu r z;
  z

(** Diffusion operator K u = -div(kappa grad u) (weak form) on a 2D
    tensor-product mesh, in two representations:

    - [assemble]: classical full assembly into CSR (the "wrong algorithm
      for GPUs" the MFEM team started from);
    - [Pa]: matrix-free partial assembly with sum factorization — only the
      per-quadrature-point geometric factors are stored, and the operator
      action contracts the 1D basis tables, O(p^3) work per element in 2D
      instead of O(p^4) matrix nonzeros.

    Both paths produce identical results (tested); they differ in the
    flop/byte/storage profile the hardware model prices, which is the
    substance of the paper's Fig 8 / Table 4. *)

type coefficient = x:float -> y:float -> float

let unit_coefficient ~x:_ ~y:_ = 1.0

(* quadrature-point geometric factors for one element: diagonal D because
   the mesh is Cartesian *)
let qfactors mesh (basis : Basis.t) ~(kappa : coefficient) ~ex ~ey =
  let nq = Basis.nq basis in
  let hx = Mesh.hx mesh and hy = Mesh.hy mesh in
  let detj = hx *. hy /. 4.0 in
  let d00 = Array.make (nq * nq) 0.0 and d11 = Array.make (nq * nq) 0.0 in
  let x0 = float_of_int ex *. hx and y0 = float_of_int ey *. hy in
  for q2 = 0 to nq - 1 do
    for q1 = 0 to nq - 1 do
      let x = x0 +. ((basis.Basis.qpts.(q1) +. 1.0) /. 2.0 *. hx) in
      let y = y0 +. ((basis.Basis.qpts.(q2) +. 1.0) /. 2.0 *. hy) in
      let w = basis.Basis.qwts.(q1) *. basis.Basis.qwts.(q2) *. detj in
      let k = kappa ~x ~y in
      d00.((q2 * nq) + q1) <- w *. k *. (4.0 /. (hx *. hx));
      d11.((q2 * nq) + q1) <- w *. k *. (4.0 /. (hy *. hy))
    done
  done;
  (d00, d11)

(* --- full assembly --- *)

(** Assemble the global CSR matrix (no boundary conditions applied). *)
let assemble ?(kappa = unit_coefficient) mesh (basis : Basis.t) =
  let nq = Basis.nq basis in
  let b = basis.Basis.b and g = basis.Basis.g in
  let triplets = ref [] in
  for ey = 0 to mesh.Mesh.ny - 1 do
    for ex = 0 to mesh.Mesh.nx - 1 do
      let d00, d11 = qfactors mesh basis ~kappa ~ex ~ey in
      (* element matrix over (i1,j1) x (i2,j2) local tensor indices *)
      for j1 = 0 to basis.Basis.p do
        for i1 = 0 to basis.Basis.p do
          let r = Mesh.global_dof mesh ~ex ~ey ~i:i1 ~j:j1 in
          for j2 = 0 to basis.Basis.p do
            for i2 = 0 to basis.Basis.p do
              let c = Mesh.global_dof mesh ~ex ~ey ~i:i2 ~j:j2 in
              let acc = ref 0.0 in
              for q2 = 0 to nq - 1 do
                for q1 = 0 to nq - 1 do
                  let qq = (q2 * nq) + q1 in
                  acc :=
                    !acc
                    +. (d00.(qq) *. g.(q1).(i1) *. b.(q2).(j1) *. g.(q1).(i2)
                       *. b.(q2).(j2))
                    +. (d11.(qq) *. b.(q1).(i1) *. g.(q2).(j1) *. b.(q1).(i2)
                       *. g.(q2).(j2))
                done
              done;
              if !acc <> 0.0 then triplets := (r, c, !acc) :: !triplets
            done
          done
        done
      done
    done
  done;
  Linalg.Csr.of_triplets ~m:(Mesh.num_dofs mesh) ~n:(Mesh.num_dofs mesh) !triplets

(** Impose homogeneous Dirichlet rows/columns: zero them and put 1 on the
    diagonal for each boundary dof. *)
let eliminate_dirichlet (a : Linalg.Csr.t) bdofs =
  let isb = Array.make a.Linalg.Csr.m false in
  List.iter (fun g -> isb.(g) <- true) bdofs;
  let triplets = ref [] in
  for i = 0 to a.Linalg.Csr.m - 1 do
    if isb.(i) then triplets := (i, i, 1.0) :: !triplets
    else
      for k = a.Linalg.Csr.row_ptr.(i) to a.Linalg.Csr.row_ptr.(i + 1) - 1 do
        let j = a.Linalg.Csr.col_idx.(k) in
        if not isb.(j) then
          triplets := (i, j, Icoe_util.Fbuf.get a.Linalg.Csr.values k) :: !triplets
      done
  done;
  Linalg.Csr.of_triplets ~m:a.Linalg.Csr.m ~n:a.Linalg.Csr.n !triplets

(* --- partial assembly --- *)

module Pa = struct
  type t = {
    mesh : Mesh.t;
    basis : Basis.t;
    d00 : float array array;  (** per element, nq^2 factors *)
    d11 : float array array;
    (* workspaces reused across applies *)
    u_loc : float array;
    y_loc : float array;
    tmp : float array;
    gx : float array;
    gy : float array;
  }

  let setup ?(kappa = unit_coefficient) mesh (basis : Basis.t) =
    let ne = Mesh.num_elements mesh in
    let nq = Basis.nq basis in
    let p1 = basis.Basis.p + 1 in
    let d00 = Array.make ne [||] and d11 = Array.make ne [||] in
    for ey = 0 to mesh.Mesh.ny - 1 do
      for ex = 0 to mesh.Mesh.nx - 1 do
        let e = (ey * mesh.Mesh.nx) + ex in
        let a, b = qfactors mesh basis ~kappa ~ex ~ey in
        d00.(e) <- a;
        d11.(e) <- b
      done
    done;
    {
      mesh;
      basis;
      d00;
      d11;
      u_loc = Array.make (p1 * p1) 0.0;
      y_loc = Array.make (p1 * p1) 0.0;
      tmp = Array.make (max (nq * p1) (nq * nq)) 0.0;
      gx = Array.make (nq * nq) 0.0;
      gy = Array.make (nq * nq) 0.0;
    }

  (* contraction: out[q2*no+q1] = sum_{i1,i2} a1[q1][i1] a2[q2][i2]
     src[i2*ni+i1], done as two 1D contractions through t.tmp *)
  let contract_forward t a1 a2 src out =
    let p1 = t.basis.Basis.p + 1 in
    let nq = Basis.nq t.basis in
    (* tmp[i2*nq+q1] = sum_i1 a1[q1][i1] src[i2*p1+i1] *)
    for i2 = 0 to p1 - 1 do
      for q1 = 0 to nq - 1 do
        let s = ref 0.0 in
        for i1 = 0 to p1 - 1 do
          s := !s +. (a1.(q1).(i1) *. src.((i2 * p1) + i1))
        done;
        t.tmp.((i2 * nq) + q1) <- !s
      done
    done;
    for q2 = 0 to nq - 1 do
      for q1 = 0 to nq - 1 do
        let s = ref 0.0 in
        for i2 = 0 to p1 - 1 do
          s := !s +. (a2.(q2).(i2) *. t.tmp.((i2 * nq) + q1))
        done;
        out.((q2 * nq) + q1) <- !s
      done
    done

  (* transpose contraction: out[j2*p1+j1] += sum_{q1,q2} a1[q1][j1]
     a2[q2][j2] src[q2*nq+q1] *)
  let contract_backward t a1 a2 src out =
    let p1 = t.basis.Basis.p + 1 in
    let nq = Basis.nq t.basis in
    (* tmp[q2*p1+j1] = sum_q1 a1[q1][j1] src[q2*nq+q1] *)
    for q2 = 0 to nq - 1 do
      for j1 = 0 to p1 - 1 do
        let s = ref 0.0 in
        for q1 = 0 to nq - 1 do
          s := !s +. (a1.(q1).(j1) *. src.((q2 * nq) + q1))
        done;
        t.tmp.((q2 * p1) + j1) <- !s
      done
    done;
    for j2 = 0 to p1 - 1 do
      for j1 = 0 to p1 - 1 do
        let s = ref 0.0 in
        for q2 = 0 to nq - 1 do
          s := !s +. (a2.(q2).(j2) *. t.tmp.((q2 * p1) + j1))
        done;
        out.((j2 * p1) + j1) <- out.((j2 * p1) + j1) +. !s
      done
    done

  (** y <- K u, matrix-free. *)
  let apply t u y =
    let mesh = t.mesh and basis = t.basis in
    let nq = Basis.nq basis in
    Array.fill y 0 (Array.length y) 0.0;
    for ey = 0 to mesh.Mesh.ny - 1 do
      for ex = 0 to mesh.Mesh.nx - 1 do
        let e = (ey * mesh.Mesh.nx) + ex in
        Mesh.gather mesh u ~ex ~ey t.u_loc;
        (* gradients at quadrature points *)
        contract_forward t basis.Basis.g basis.Basis.b t.u_loc t.gx;
        contract_forward t basis.Basis.b basis.Basis.g t.u_loc t.gy;
        (* scale by geometric factors *)
        let d00 = t.d00.(e) and d11 = t.d11.(e) in
        for qq = 0 to (nq * nq) - 1 do
          t.gx.(qq) <- t.gx.(qq) *. d00.(qq);
          t.gy.(qq) <- t.gy.(qq) *. d11.(qq)
        done;
        (* transpose contractions back to dofs *)
        Array.fill t.y_loc 0 (Array.length t.y_loc) 0.0;
        contract_backward t basis.Basis.g basis.Basis.b t.gx t.y_loc;
        contract_backward t basis.Basis.b basis.Basis.g t.gy t.y_loc;
        Mesh.scatter_add mesh t.y_loc ~ex ~ey y
      done
    done

  (** Recompute the geometric factors for a solution-dependent coefficient
      kappa(u): u is interpolated to the quadrature points with the same
      sum-factorized contractions. This is the "formulation" work of each
      nonlinear (re)build in the Fig 8 breakdown. *)
  let update_coefficients t ~(kappa_of_u : float -> float) ~u =
    let mesh = t.mesh and basis = t.basis in
    let nq = Basis.nq basis in
    let hx = Mesh.hx mesh and hy = Mesh.hy mesh in
    let detj = hx *. hy /. 4.0 in
    for ey = 0 to mesh.Mesh.ny - 1 do
      for ex = 0 to mesh.Mesh.nx - 1 do
        let e = (ey * mesh.Mesh.nx) + ex in
        Mesh.gather mesh u ~ex ~ey t.u_loc;
        (* u at quadrature points into gx workspace *)
        contract_forward t basis.Basis.b basis.Basis.b t.u_loc t.gx;
        let d00 = t.d00.(e) and d11 = t.d11.(e) in
        for q2 = 0 to nq - 1 do
          for q1 = 0 to nq - 1 do
            let qq = (q2 * nq) + q1 in
            let w = basis.Basis.qwts.(q1) *. basis.Basis.qwts.(q2) *. detj in
            let k = kappa_of_u t.gx.(qq) in
            d00.(qq) <- w *. k *. (4.0 /. (hx *. hx));
            d11.(qq) <- w *. k *. (4.0 /. (hy *. hy))
          done
        done
      done
    done

  (** "JIT"-specialized operator application for order p = 2: the inner
      contraction loops are fully unrolled with the basis-table extents
      known at compile time — the Acrotensor/OCCA lesson of Sec 4.10.3
      ("the loop bounds must be known at compile time"). Falls back to the
      generic [apply] for other orders. Results are identical to [apply]
      (tested); only the speed differs. *)
  let apply_specialized t u y =
    if t.basis.Basis.p <> 2 || Basis.nq t.basis <> 4 then apply t u y
    else begin
      let mesh = t.mesh and basis = t.basis in
      let b = basis.Basis.b and g = basis.Basis.g in
      Array.fill y 0 (Array.length y) 0.0;
      let u_loc = t.u_loc and y_loc = t.y_loc in
      let gx = t.gx and gy = t.gy in
      let tmpa = Array.make 12 0.0 and tmpb = Array.make 12 0.0 in
      for ey = 0 to mesh.Mesh.ny - 1 do
        for ex = 0 to mesh.Mesh.nx - 1 do
          let e = (ey * mesh.Mesh.nx) + ex in
          Mesh.gather mesh u ~ex ~ey u_loc;
          (* forward contractions, unrolled over i1/i2 in {0,1,2}, q in 0..3 *)
          for i2 = 0 to 2 do
            let base = i2 * 3 in
            let u0 = u_loc.(base) and u1 = u_loc.(base + 1) and u2 = u_loc.(base + 2) in
            for q1 = 0 to 3 do
              tmpa.((i2 * 4) + q1) <-
                (g.(q1).(0) *. u0) +. (g.(q1).(1) *. u1) +. (g.(q1).(2) *. u2);
              tmpb.((i2 * 4) + q1) <-
                (b.(q1).(0) *. u0) +. (b.(q1).(1) *. u1) +. (b.(q1).(2) *. u2)
            done
          done;
          for q2 = 0 to 3 do
            let b0 = b.(q2).(0) and b1 = b.(q2).(1) and b2 = b.(q2).(2) in
            let g0 = g.(q2).(0) and g1 = g.(q2).(1) and g2 = g.(q2).(2) in
            for q1 = 0 to 3 do
              gx.((q2 * 4) + q1) <-
                (b0 *. tmpa.(q1)) +. (b1 *. tmpa.(4 + q1)) +. (b2 *. tmpa.(8 + q1));
              gy.((q2 * 4) + q1) <-
                (g0 *. tmpb.(q1)) +. (g1 *. tmpb.(4 + q1)) +. (g2 *. tmpb.(8 + q1))
            done
          done;
          let d00 = t.d00.(e) and d11 = t.d11.(e) in
          for qq = 0 to 15 do
            gx.(qq) <- gx.(qq) *. d00.(qq);
            gy.(qq) <- gy.(qq) *. d11.(qq)
          done;
          (* backward contractions *)
          for q2 = 0 to 3 do
            for j1 = 0 to 2 do
              tmpa.((q2 * 3) + j1) <-
                (g.(0).(j1) *. gx.(q2 * 4))
                +. (g.(1).(j1) *. gx.((q2 * 4) + 1))
                +. (g.(2).(j1) *. gx.((q2 * 4) + 2))
                +. (g.(3).(j1) *. gx.((q2 * 4) + 3));
              tmpb.((q2 * 3) + j1) <-
                (b.(0).(j1) *. gy.(q2 * 4))
                +. (b.(1).(j1) *. gy.((q2 * 4) + 1))
                +. (b.(2).(j1) *. gy.((q2 * 4) + 2))
                +. (b.(3).(j1) *. gy.((q2 * 4) + 3))
            done
          done;
          for j2 = 0 to 2 do
            for j1 = 0 to 2 do
              y_loc.((j2 * 3) + j1) <-
                (b.(0).(j2) *. tmpa.(j1)) +. (b.(1).(j2) *. tmpa.(3 + j1))
                +. (b.(2).(j2) *. tmpa.(6 + j1))
                +. (b.(3).(j2) *. tmpa.(9 + j1))
                +. (g.(0).(j2) *. tmpb.(j1))
                +. (g.(1).(j2) *. tmpb.(3 + j1))
                +. (g.(2).(j2) *. tmpb.(6 + j1))
                +. (g.(3).(j2) *. tmpb.(9 + j1))
            done
          done;
          Mesh.scatter_add mesh y_loc ~ex ~ey y
        done
      done
    end

  (** Flop/byte volume of one full-mesh operator application. *)
  let work t =
    let p1 = float_of_int (t.basis.Basis.p + 1) in
    let nq = float_of_int (Basis.nq t.basis) in
    let ne = float_of_int (Mesh.num_elements t.mesh) in
    (* 4 forward + 4 backward 1D contraction passes, each ~2*nq*p1*max(nq,p1)
       flops, plus 2 mults per qpoint *)
    let contraction = 2.0 *. ((nq *. p1 *. p1) +. (nq *. nq *. p1)) in
    let flops = ne *. ((4.0 *. contraction) +. (2.0 *. nq *. nq)) in
    let bytes = ne *. 8.0 *. ((2.0 *. p1 *. p1) +. (2.0 *. nq *. nq)) in
    Hwsim.Kernel.make ~name:"pa-apply" ~flops ~bytes ()

  (** Bytes of operator storage (the D factors). *)
  let storage_bytes t =
    let nq = Basis.nq t.basis in
    float_of_int (Mesh.num_elements t.mesh) *. 2.0 *. float_of_int (nq * nq) *. 8.0
end

(** Flop/byte volume of one CSR full-assembly operator application. *)
let fa_work (a : Linalg.Csr.t) =
  let nz = float_of_int (Linalg.Csr.nnz a) in
  Hwsim.Kernel.make ~name:"fa-apply" ~flops:(2.0 *. nz)
    ~bytes:((12.0 *. nz) +. (16.0 *. float_of_int a.Linalg.Csr.m))
    ()

let fa_storage_bytes (a : Linalg.Csr.t) = 12.0 *. float_of_int (Linalg.Csr.nnz a)

(* --- diagonal (collocated) mass matrix --- *)

(** Diagonal mass matrix entries using GLL collocation (spectral-element
    lumping) at unit density: M_gg = sum over elements touching g of
    w_i w_j detJ. *)
let mass_diagonal mesh (cbasis : Basis.t) =
  let m = Array.make (Mesh.num_dofs mesh) 0.0 in
  let hx = Mesh.hx mesh and hy = Mesh.hy mesh in
  let detj = hx *. hy /. 4.0 in
  for ey = 0 to mesh.Mesh.ny - 1 do
    for ex = 0 to mesh.Mesh.nx - 1 do
      for j = 0 to cbasis.Basis.p do
        for i = 0 to cbasis.Basis.p do
          let g = Mesh.global_dof mesh ~ex ~ey ~i ~j in
          m.(g) <-
            m.(g) +. (cbasis.Basis.qwts.(i) *. cbasis.Basis.qwts.(j) *. detj)
        done
      done
    done
  done;
  m

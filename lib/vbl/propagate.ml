(** The VBL split-step algorithm (Sec 4.11 / [24]): each z-step applies

    1. the Fresnel diffraction operator in Fourier space
       (two FFTs + a quadratic spectral phase), and
    2. pointwise operators in real space: amplifier gain with saturation
       and phase screens (aberrations, defects).

    The FFT part is the cuFFT call; the pointwise part is the RAJA
    triply-nested loop of the paper. *)

(** Apply a phase screen phi(x, y) (radians) to the field. *)
let phase_screen (b : Beam.t) phi =
  for j = 0 to b.Beam.n - 1 do
    for i = 0 to b.Beam.n - 1 do
      let x, y = Beam.coords b i j in
      let p = phi ~x ~y in
      let c = cos p and s = sin p in
      let k = 2 * ((j * b.Beam.n) + i) in
      let re = b.Beam.field.(k) and im = b.Beam.field.(k + 1) in
      b.Beam.field.(k) <- (re *. c) -. (im *. s);
      b.Beam.field.(k + 1) <- (re *. s) +. (im *. c)
    done
  done

(** Two localized Gaussian phase bumps of size [defect_size] (the Fig 9
    "150 micron phase defects"), placed in the lower-left quadrant. *)
let defect_screen ~defect_size ~depth (b : Beam.t) =
  let w = b.Beam.width in
  let centers = [ (-0.2 *. w, -0.2 *. w); (-0.28 *. w, -0.13 *. w) ] in
  phase_screen b (fun ~x ~y ->
      List.fold_left
        (fun acc (cx, cy) ->
          let r2 = ((x -. cx) ** 2.0) +. ((y -. cy) ** 2.0) in
          acc +. (depth *. exp (-.r2 /. (defect_size *. defect_size))))
        0.0 centers)

(** Fresnel propagation over distance [dz] via the spectral method. *)
let fresnel_step (b : Beam.t) ~dz =
  let n = b.Beam.n in
  let k0 = 2.0 *. Float.pi /. b.Beam.wavelength in
  Fftlib.Fft.transform_2d ~n b.Beam.field;
  let dkx = 2.0 *. Float.pi /. b.Beam.width in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      (* FFT frequencies in standard wrap-around order *)
      let fi = if i <= n / 2 then i else i - n in
      let fj = if j <= n / 2 then j else j - n in
      let kx = float_of_int fi *. dkx and ky = float_of_int fj *. dkx in
      let phase = -.dz *. ((kx *. kx) +. (ky *. ky)) /. (2.0 *. k0) in
      let c = cos phase and s = sin phase in
      let k = 2 * ((j * n) + i) in
      let re = b.Beam.field.(k) and im = b.Beam.field.(k + 1) in
      b.Beam.field.(k) <- (re *. c) -. (im *. s);
      b.Beam.field.(k + 1) <- (re *. s) +. (im *. c)
    done
  done;
  Fftlib.Fft.transform_2d ~inverse:true ~n b.Beam.field

(** Saturated-gain amplifier slab: field gain g0/(1 + F/Fsat) per metre
    over [dz]. *)
let amplifier_step (b : Beam.t) ~g0 ~fsat ~dz =
  let n = b.Beam.n in
  for k = 0 to (n * n) - 1 do
    let re = b.Beam.field.(2 * k) and im = b.Beam.field.((2 * k) + 1) in
    let f = (re *. re) +. (im *. im) in
    let g = exp (g0 *. dz /. (2.0 *. (1.0 +. (f /. fsat)))) in
    b.Beam.field.(2 * k) <- re *. g;
    b.Beam.field.((2 * k) + 1) <- im *. g
  done

(** Propagate [distance] metres in [steps] split steps, with optional gain. *)
let run ?gain (b : Beam.t) ~distance ~steps =
  let dz = distance /. float_of_int steps in
  for _ = 1 to steps do
    fresnel_step b ~dz;
    match gain with
    | Some (g0, fsat) -> amplifier_step b ~g0 ~fsat ~dz
    | None -> ()
  done

(** Per-split-step simulated time on a device: 4 n-point-row FFT passes
    (2 forward + 2 inverse batched over n rows), 2 transposes, and the
    pointwise spectral phase. The transpose variant is the Sec 4.11
    RAJA-vs-CUDA lever. *)
let step_time ~n ~(device : Hwsim.Device.t) ~transpose_variant =
  let fft_pass = Hwsim.Kernel.scale (float_of_int (2 * n)) (Fftlib.Fft.fft_work n) in
  let eff = Hwsim.Roofline.eff ~compute:0.5 ~bandwidth:0.7 () in
  let t_fft = 2.0 *. Hwsim.Roofline.time ~eff device fft_pass in
  let t_tr = 2.0 *. Fftlib.Fft.transpose_time ~n ~device transpose_variant in
  let pointwise =
    Hwsim.Kernel.make ~name:"spectral-phase"
      ~flops:(float_of_int (n * n) *. 20.0)
      ~bytes:(float_of_int (n * n) *. 32.0)
      ()
  in
  let t_pw = Hwsim.Roofline.time ~eff device pointwise in
  t_fft +. t_tr +. t_pw

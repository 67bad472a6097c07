(** Complex radix-2 FFT — the cuFFT analog VBL's split-step algorithm
    leans on. Data is interleaved (re, im) in a flat float array of length
    2n. In-place, iterative Cooley-Tukey with bit-reversal permutation. *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* bit reversal permutation, in place *)
let bit_reverse a n =
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = a.(2 * i) and ti = a.((2 * i) + 1) in
      a.(2 * i) <- a.(2 * !j);
      a.((2 * i) + 1) <- a.((2 * !j) + 1);
      a.(2 * !j) <- tr;
      a.((2 * !j) + 1) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done

(** In-place FFT of length n (power of 2); [inverse] includes the 1/n
    normalization. *)
let transform ?(inverse = false) a =
  let n = Array.length a / 2 in
  if not (is_pow2 n && Array.length a = 2 * n) then
    invalid_arg
      (Printf.sprintf
         "Fft.transform: array length %d is not twice a power of 2" (Array.length a));
  bit_reverse a n;
  let sign = if inverse then 1.0 else -1.0 in
  let len = ref 2 in
  while !len <= n do
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wr = cos ang and wi = sin ang in
    let i = ref 0 in
    while !i < n do
      let cr = ref 1.0 and ci = ref 0.0 in
      for k = 0 to (!len / 2) - 1 do
        let u = !i + k and v = !i + k + (!len / 2) in
        let ur = a.(2 * u) and ui = a.((2 * u) + 1) in
        let vr = (a.(2 * v) *. !cr) -. (a.((2 * v) + 1) *. !ci) in
        let vi = (a.(2 * v) *. !ci) +. (a.((2 * v) + 1) *. !cr) in
        a.(2 * u) <- ur +. vr;
        a.((2 * u) + 1) <- ui +. vi;
        a.(2 * v) <- ur -. vr;
        a.((2 * v) + 1) <- ui -. vi;
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done;
  if inverse then begin
    let inv = 1.0 /. float_of_int n in
    for k = 0 to (2 * n) - 1 do
      a.(k) <- a.(k) *. inv
    done
  end

(** Out-of-place convenience: returns a fresh transformed copy. *)
let dft ?(inverse = false) a =
  let b = Array.copy a in
  transform ~inverse b;
  b

(* --- 2D --- *)

(** Naive complex matrix transpose (strided reads — the slow RAJA-port
    shape from Sec 4.11). *)
let transpose_naive ~n src dst =
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      dst.(2 * ((i * n) + j)) <- src.(2 * ((j * n) + i));
      dst.((2 * ((i * n) + j)) + 1) <- src.((2 * ((j * n) + i)) + 1)
    done
  done

(** Tiled transpose (the hand-CUDA rewrite that won): [tile] x [tile]
    blocks keep both access streams cache/shared-memory resident. *)
let transpose_tiled ?(tile = 16) ~n src dst =
  let bt = (n + tile - 1) / tile in
  for bj = 0 to bt - 1 do
    for bi = 0 to bt - 1 do
      let ilo = bi * tile and jlo = bj * tile in
      for j = jlo to min (jlo + tile - 1) (n - 1) do
        for i = ilo to min (ilo + tile - 1) (n - 1) do
          dst.(2 * ((i * n) + j)) <- src.(2 * ((j * n) + i));
          dst.((2 * ((i * n) + j)) + 1) <- src.((2 * ((j * n) + i)) + 1)
        done
      done
    done
  done

(** 2D FFT of an n x n complex field (row-major, interleaved), using
    row FFTs + transpose + row FFTs + transpose. *)
let transform_2d ?(inverse = false) ~n a =
  if not (Array.length a = 2 * n * n) then
    invalid_arg
      (Printf.sprintf "Fft.transform_2d: array length %d, expected 2 * %d * %d"
         (Array.length a) n n);
  let row = Array.make (2 * n) 0.0 in
  let do_rows b =
    for j = 0 to n - 1 do
      Array.blit b (2 * n * j) row 0 (2 * n);
      transform ~inverse row;
      Array.blit row 0 b (2 * n * j) (2 * n)
    done
  in
  let scratch = Array.make (2 * n * n) 0.0 in
  do_rows a;
  transpose_tiled ~n a scratch;
  do_rows scratch;
  transpose_tiled ~n scratch a

(** Work volume of one n-point 1D FFT (5 n log2 n flops, classic count). *)
let fft_work n =
  let fn = float_of_int n in
  let lg = Float.log2 fn in
  Hwsim.Kernel.make ~name:"fft" ~flops:(5.0 *. fn *. lg) ~bytes:(16.0 *. fn *. lg) ()

(** Transpose work: same bytes either way, but the naive version achieves a
    fraction of bandwidth (strided writes), the tiled one streams. *)
let transpose_time ~n ~(device : Hwsim.Device.t) variant =
  let bytes = 2.0 *. 16.0 *. float_of_int (n * n) in
  let bw_frac = match variant with `Naive -> 0.12 | `Tiled -> 0.75 in
  device.Hwsim.Device.launch_overhead_s
  +. (bytes /. (device.Hwsim.Device.mem_bw_gbs *. 1e9 *. bw_frac))

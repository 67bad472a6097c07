(** Dense vector kernels over [float array].

    These are the BLAS-1 building blocks every solver in the workload
    shares. All are written as plain loops so flop/byte counts are evident
    when priced on the hardware model. *)

let create n = Array.make n 0.0

let of_list = Array.of_list

let copy = Array.copy

let fill v x = Array.fill v 0 (Array.length v) x

(* the guard of every two-vector kernel: [fn] and both lengths in the
   message *)
let check_lengths fn x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: lengths %d and %d differ" fn (Array.length x)
         (Array.length y))

(** y <- a*x + y *)
let axpy a x y =
  check_lengths "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

(** y <- x + b*y *)
let xpby x b y =
  check_lengths "xpby" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- x.(i) +. (b *. y.(i))
  done

let scale a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let dot x y =
  check_lengths "dot" x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let nrm2 x = sqrt (dot x x)

let nrm_inf x = Array.fold_left (fun m v -> max m (Float.abs v)) 0.0 x

(** z <- x - y (fresh array) *)
let sub x y =
  check_lengths "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let add x y =
  check_lengths "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

(** Pointwise product z_i = x_i * y_i (fresh array). *)
let mul x y =
  check_lengths "mul" x y;
  Array.init (Array.length x) (fun i -> x.(i) *. y.(i))

let map = Array.map

let blit ~src ~dst = Array.blit src 0 dst 0 (Array.length src)

(** Weighted RMS norm used by the CVODE-style integrator:
    sqrt( (1/n) * sum (x_i * w_i)^2 ). *)
let wrms x w =
  check_lengths "wrms" x w;
  let n = Array.length x in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let t = x.(i) *. w.(i) in
    s := !s +. (t *. t)
  done;
  sqrt (!s /. float_of_int n)

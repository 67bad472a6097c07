(* Flat float64 Bigarray buffers: the storage type of every hot kernel.
   See fbuf.mli for the contract. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.0;
  b

external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
let fill (t : t) v = Bigarray.Array1.fill t v

let blit ~(src : t) ~(dst : t) =
  Bigarray.Array1.blit src dst

let copy (t : t) : t =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (length t) in
  Bigarray.Array1.blit t b;
  b

let of_array (a : float array) : t =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let to_array (t : t) = Array.init (length t) (fun i -> get t i)

let init n f : t =
  let b = create n in
  for i = 0 to n - 1 do
    set b i (f i)
  done;
  b

let blit_to_array (t : t) (a : float array) =
  let n = Array.length a in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (get t i)
  done

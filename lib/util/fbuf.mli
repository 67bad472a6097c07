(** Flat float64 buffers over [Bigarray.Array1]: the structure-of-arrays
    storage type of every hot kernel.

    Why not [float array]? OCaml float arrays are already unboxed, but
    they live on the OCaml heap: every read in a hot loop is
    bounds-checked unless [unsafe_get] is spelled at each site, the GC
    scans and moves them, and they cannot be pooled outside the minor
    heap. [Fbuf.t] buffers are malloc-backed (never moved, never
    scanned), all accessors here compile to single unsafe loads/stores,
    and the buffers thread through {!Prog.Scratch} for Umpire-style
    reuse so steady-state kernel iterations allocate nothing.

    Bit-compatibility: an [Fbuf.t] holds exactly the same IEEE-754
    binary64 values a [float array] would, so migrating a kernel from
    one to the other cannot change results. Structural equality [( = )]
    compares contents (Bigarray's [compare_ext]), which the fault tests
    rely on for snapshot equality.

    All indexed access is {b unchecked} ([Array1.unsafe_get/set]) —
    callers own their index arithmetic, which is why the binning and
    window clamps fixed in PR 10 are load-bearing. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Freshly allocated, zero-filled. *)

external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_unsafe_ref_1"
(** Unchecked read. Declared [external] (the compiler primitive, not a
    wrapper function) so that without flambda the access still compiles
    to a single unboxed load at every call site — a plain [val] costs a
    boxed-float allocation per read from another module, which is most
    of a hot kernel's garbage. *)

external set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
(** Unchecked write; [external] for the same reason as {!get}. *)

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Lengths must match (Bigarray raises otherwise). *)

val copy : t -> t
val of_array : float array -> t
val to_array : t -> float array
val init : int -> (int -> float) -> t

val blit_to_array : t -> float array -> unit
(** Copy the buffer prefix over the whole array (array length must be
    [<= length t]; unchecked). *)

(* Umpire-style scratch-buffer arena. See scratch.mli. *)

module Fbuf = Icoe_util.Fbuf

type t = (string, Fbuf.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let grow t key n =
  let b = Fbuf.create n in
  Hashtbl.replace t key b;
  b

let get t key n =
  match Hashtbl.find t key with
  | b when Fbuf.length b = n -> b
  | _ -> grow t key n
  | exception Not_found -> grow t key n

let get_zeroed t key n =
  let b = get t key n in
  Fbuf.fill b 0.0;
  b

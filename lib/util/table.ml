(** Plain-text table rendering for experiment reports.

    Benches print paper-style rows with this; keeping formatting in one
    place makes every harness's output uniform. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align array;
  mutable rows : string list list; (* reversed *)
}

let create ?(aligns = [||]) ~title header =
  let aligns =
    if Array.length aligns = List.length header then aligns
    else Array.make (List.length header) Right
  in
  { title; header; aligns; rows = [] }

let add_row t row =
  if not (List.length row = List.length t.header) then
    invalid_arg
      (Printf.sprintf "Table.add_row %s: %d cells for %d columns" t.title
         (List.length row) (List.length t.header));
  t.rows <- row :: t.rows

(* Cell separator for [addf]: the ASCII unit separator, which cannot
   appear in rendered cell values — a formatted cell containing '|'
   (e.g. a phase named "comm|halo") must not shift the columns. *)
let sep = "\x1f"

let addf t fmts = Fmt.kstr (fun s -> add_row t (String.split_on_char '\x1f' s)) fmts

let fcell ?(prec = 3) v = Fmt.str "%.*f" prec v

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let pad i c =
    let w = widths.(i) in
    let n = w - String.length c in
    if n <= 0 then c
    else
      match t.aligns.(i) with
      | Left -> c ^ String.make n ' '
      | Right -> String.make n ' ' ^ c
  in
  let line row =
    "| " ^ String.concat " | " (List.mapi pad row) ^ " |"
  in
  let sep =
    "|" ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.header ^ "\n" ^ sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf

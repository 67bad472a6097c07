(** In-memory graphs in CSR form plus the Graph500-style Kronecker (RMAT)
    generator HavoqGT-scale runs are measured on. *)

type t = {
  n : int;  (** vertices *)
  m : int;  (** directed edges (both directions stored for undirected) *)
  row_ptr : int array;
  adj : int array;
}

let degree g v = g.row_ptr.(v + 1) - g.row_ptr.(v)

let of_edges ~n edges =
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + deg.(v)
  done;
  let adj = Array.make row_ptr.(n) 0 in
  let fill = Array.copy row_ptr in
  List.iter
    (fun (u, v) ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  { n; m = row_ptr.(n); row_ptr; adj }

(** RMAT generator: 2^scale vertices, 16 * 2^scale undirected
    edges, Graph500 parameters (a, b, c) = (0.57, 0.19, 0.19).
    Self-loops are dropped; multi-edges are kept (as in Graph500). *)
let rmat ~(rng : Icoe_util.Rng.t) ~scale () =
  let a = 0.57 and b = 0.19 and c = 0.19 in
  let n = 1 lsl scale in
  let nedges = 16 * n in
  let edges = ref [] in
  for _ = 1 to nedges do
    let u = ref 0 and v = ref 0 in
    for bit = scale - 1 downto 0 do
      let r = Icoe_util.Rng.float rng in
      let du, dv =
        if r < a then (0, 0)
        else if r < a +. b then (0, 1)
        else if r < a +. b +. c then (1, 0)
        else (1, 1)
      in
      u := !u lor (du lsl bit);
      v := !v lor (dv lsl bit)
    done;
    if !u <> !v then edges := (!u, !v) :: !edges
  done;
  of_edges ~n !edges

(** Uniform random graph for comparison. *)
let erdos_renyi ~(rng : Icoe_util.Rng.t) ~n ~edges () =
  let es = ref [] in
  let cnt = ref 0 in
  while !cnt < edges do
    let u = Icoe_util.Rng.int rng n and v = Icoe_util.Rng.int rng n in
    if u <> v then begin
      es := (u, v) :: !es;
      incr cnt
    end
  done;
  of_edges ~n !es

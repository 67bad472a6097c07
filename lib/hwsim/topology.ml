(** Hierarchical network topologies: node -> leaf switch -> spine/fabric.

    A topology is a leaf-first stack of switching levels, each priced by
    its own {!Link.t} and derated by a contention factor when the level
    is oversubscribed (fat-tree tapered cores, dragonfly global optics).
    A transfer's cost depends on how many levels it crosses, which in
    turn depends on the gang's *placement*: a contiguous block stays low
    in the tree, a randomly spread allocation pays the top level on
    every message.

    Bit-identity contract: a degenerate one-level topology ({!flat})
    prices every transfer as exactly [Link.transfer_time] of its single
    link — same floats, same operations — so every pre-topology cost
    model is recovered unchanged by wrapping its old fabric in
    [Topology.flat]. All existing machines do exactly that. *)

type placement =
  | Contiguous  (** one block of consecutive node ids *)
  | Rank_reordered
      (** fragmented allocation with ranks reordered for locality:
          recovers most of the contiguous crossing, pays one extra
          level *)
  | Random_spread  (** scattered allocation: every message crosses the top *)

type level = {
  name : string;
  link : Link.t;
  radix : int;
      (** fan-out of a level-[i] subtree in level-[i-1] subtrees; the
          number of endpoints under one level-[i] switch is the product
          of radixes up to [i] *)
  contention : float;
      (** >= 1: bandwidth divisor when the level's uplinks are
          oversubscribed (1.0 = full bisection) *)
}

type t = { name : string; levels : level array }

let depth t = Array.length t.levels
let is_flat t = depth t = 1
let leaf_link t = t.levels.(0).link

let make ~name levels =
  if levels = [] then invalid_arg ("Topology.make " ^ name ^ ": no levels");
  List.iter
    (fun l ->
      if l.radix < 2 then
        invalid_arg
          (Fmt.str "Topology.make %s: level %s radix %d (must be >= 2)" name
             l.name l.radix);
      if not (Float.is_finite l.contention) || l.contention < 1.0 then
        invalid_arg
          (Fmt.str "Topology.make %s: level %s contention %.17g (must be >= 1)"
             name l.name l.contention);
      (* re-validate the link so a hand-built record fails here too *)
      ignore
        (Link.make ~name:l.link.Link.name ~latency_s:l.link.Link.latency_s
           ~bw_gbs:l.link.Link.bw_gbs))
    levels;
  { name; levels = Array.of_list levels }

(** The degenerate one-level topology: the whole machine behind a single
    flat link, as every pre-topology machine model assumed. *)
let flat ?name link =
  let name = match name with Some n -> n | None -> "flat/" ^ link.Link.name in
  make ~name
    [ { name = "fabric"; link; radix = max_int; contention = 1.0 } ]

(** Three-level fat tree: nodes under leaf switches, leaves under pods,
    pods under a (possibly tapered) core. *)
let fat_tree ~name ~leaf ~spine ~leaf_radix ~pod_radix
    ?(core_contention = 2.0) () =
  make ~name
    [
      { name = "leaf"; link = leaf; radix = leaf_radix; contention = 1.0 };
      { name = "pod"; link = spine; radix = pod_radix; contention = 1.0 };
      { name = "core"; link = spine; radix = max_int;
        contention = core_contention };
    ]

(** Two-level dragonfly: electrical all-to-all groups joined by tapered
    global optical links. *)
let dragonfly ~name ~local ~global ~group_radix ?(global_contention = 2.0) ()
    =
  make ~name
    [
      { name = "group"; link = local; radix = group_radix; contention = 1.0 };
      { name = "global"; link = global; radix = max_int;
        contention = global_contention };
    ]

(** Endpoints under one level-[lvl] subtree (saturating product of
    radixes 0..lvl). *)
let reach t lvl =
  let r = ref 1 in
  for i = 0 to lvl do
    let rad = t.levels.(i).radix in
    if !r > max_int / rad then r := max_int else r := !r * rad
  done;
  !r

(** Highest level a gang of [nodes] endpoints crosses under a placement:
    a contiguous block crosses only up to the smallest subtree that
    contains it; a random spread crosses the top on every message;
    rank reordering recovers the contiguous crossing plus one level of
    fragmentation spill. A single endpoint crosses nothing (level 0 by
    convention — costs still apply only if a transfer is priced). *)
let crossing t ~nodes placement =
  let top = depth t - 1 in
  if nodes <= 1 then 0
  else
    let contiguous =
      let rec go i = if i >= top || reach t i >= nodes then i else go (i + 1) in
      go 0
    in
    match placement with
    | Contiguous -> contiguous
    | Rank_reordered -> min top (contiguous + 1)
    | Random_spread -> top

(** Highest level actually crossed by a concrete id set (lowest common
    ancestor over the placement's node ids). *)
let crossing_of_ids t ids =
  match ids with
  | [] | [ _ ] -> 0
  | id0 :: rest ->
      let top = depth t - 1 in
      let rec go i =
        if i >= top then top
        else
          let r = reach t i in
          if List.for_all (fun id -> id / r = id0 / r) rest then i
          else go (i + 1)
      in
      go 0

(** Number of link traversals of a path crossing levels 0..lvl: up and
    back down through each level's switches. Flat topologies are a
    single wire, as the old model priced them. *)
let hops t ~level = if is_flat t then 1 else 2 * (level + 1)

(** Point-to-point transfer crossing levels 0..[level]: each level pays
    its two hop latencies and its (contention-derated) wire time. One
    level degenerates to exactly [Link.transfer_time] — the bit-identity
    contract every flat-default cost model relies on. *)
let path_time t ~level ~bytes =
  if not (bytes >= 0.0) then
    invalid_arg (Printf.sprintf "Topology.path_time: bytes = %g is not >= 0" bytes);
  if is_flat t then Link.transfer_time (leaf_link t) ~bytes
  else if bytes = 0.0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to level do
      let l = t.levels.(i) in
      s :=
        !s
        +. (2.0 *. l.link.Link.latency_s)
        +. (bytes *. l.contention /. (l.link.Link.bw_gbs *. 1e9))
    done;
    !s
  end

(** Transfer cost of a [bytes]-sized message within a gang of [nodes]
    endpoints under a placement. *)
let gang_transfer_time t ~nodes ~placement ~bytes =
  path_time t ~level:(crossing t ~nodes placement) ~bytes

(** Effective per-node all-to-all bandwidth (GB/s) of a gang: the most
    contended level it crosses throttles the collective. Flat is the
    fabric itself. *)
let alltoall_gbs t ~nodes =
  if is_flat t then (leaf_link t).Link.bw_gbs
  else begin
    let lvl = crossing t ~nodes Contiguous in
    let bw = ref infinity in
    for i = 0 to lvl do
      let l = t.levels.(i) in
      bw := Float.min !bw (l.link.Link.bw_gbs /. l.contention)
    done;
    !bw
  end

let allreduce_rounds nodes =
  Float.ceil (Float.log2 (float_of_int (max 2 nodes)))

(** Recursive-doubling allreduce of [bytes] across [nodes] endpoints:
    round [r] pairs partners [2^r] ranks apart, so under a contiguous
    block the early rounds stay inside leaf subtrees and only the last
    ones climb to the spine; a random spread pays the top level every
    round. Flat topologies recover the old
    [rounds *. transfer_time fabric] exactly. *)
let allreduce_time t ~nodes ~placement ~bytes =
  let rounds = allreduce_rounds nodes in
  if is_flat t then rounds *. Link.transfer_time (leaf_link t) ~bytes
  else begin
    let s = ref 0.0 in
    for r = 0 to int_of_float rounds - 1 do
      let span = min nodes (1 lsl min 62 (r + 1)) in
      let lvl = crossing t ~nodes:span placement in
      s := !s +. path_time t ~level:lvl ~bytes
    done;
    !s
  end

(** Service-time inflation of a gang whose placement crossed [level]
    instead of the contiguous-best level for its size: the ratio of a
    reference 1 MB gang transfer at the two crossings. 1.0 when the
    placement is no worse than a contiguous block (and always on flat
    topologies, where placement is invisible). *)
let placement_penalty t ~nodes ~level =
  if is_flat t then 1.0
  else
    let best = crossing t ~nodes Contiguous in
    if level <= best then 1.0
    else
      let bytes = 1.0e6 in
      path_time t ~level ~bytes /. path_time t ~level:best ~bytes

let pp_level ppf (l : level) =
  Fmt.pf ppf "%s(%a%s%s)" l.name Link.pp l.link
    (if l.radix = max_int then "" else Fmt.str ", radix %d" l.radix)
    (if l.contention = 1.0 then "" else Fmt.str ", %.1f:1" l.contention)

let pp ppf t =
  if is_flat t then Fmt.pf ppf "flat %a" Link.pp (leaf_link t)
  else
    Fmt.pf ppf "%s: %a" t.name
      (Fmt.array ~sep:(Fmt.any " -> ") pp_level)
      t.levels

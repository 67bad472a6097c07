(** Breadth-first search: classic top-down, bottom-up, and the
    direction-optimizing hybrid (Beamer-style) that Graph500 codes use.
    Returns the parent array; GTEPS accounting counts traversed edges. *)

type stats = {
  parents : int array;
  reached : int;
  edges_traversed : int;  (** for the top-down baseline accounting *)
  iterations : int;
  switches : int;  (** top-down <-> bottom-up transitions (hybrid only) *)
}

let m_frontier =
  Icoe_obs.Metrics.histogram ~help:"Frontier size per BFS iteration"
    "bfs_frontier_size"

let m_switches =
  Icoe_obs.Metrics.counter ~help:"Top-down <-> bottom-up direction switches"
    "bfs_direction_switches_total"

let m_edges =
  Icoe_obs.Metrics.counter ~help:"Edges traversed across all searches"
    "bfs_edges_traversed_total"

let m_searches =
  Icoe_obs.Metrics.counter ~help:"Completed BFS searches" "bfs_searches_total"

let record (s : stats) =
  Icoe_obs.Metrics.inc m_searches;
  Icoe_obs.Metrics.inc ~by:(float_of_int s.edges_traversed) m_edges;
  Icoe_obs.Metrics.inc ~by:(float_of_int s.switches) m_switches;
  s

let top_down (g : Graph.t) ~src =
  let parents = Array.make g.Graph.n (-1) in
  parents.(src) <- src;
  let frontier = ref [ src ] in
  let reached = ref 1 in
  let edges = ref 0 in
  let iters = ref 0 in
  while !frontier <> [] do
    incr iters;
    Icoe_obs.Metrics.observe m_frontier (float_of_int (List.length !frontier));
    let next = ref [] in
    List.iter
      (fun u ->
        for k = g.Graph.row_ptr.(u) to g.Graph.row_ptr.(u + 1) - 1 do
          incr edges;
          let v = g.Graph.adj.(k) in
          if parents.(v) < 0 then begin
            parents.(v) <- u;
            incr reached;
            next := v :: !next
          end
        done)
      !frontier;
    frontier := !next
  done;
  record
    {
      parents;
      reached = !reached;
      edges_traversed = !edges;
      iterations = !iters;
      switches = 0;
    }

(** Direction-optimizing BFS: switch to bottom-up when the frontier is a
    large fraction of the graph, back to top-down when it shrinks. *)
(* Beamer's switch thresholds: bottom-up once the frontier's edges
   exceed 1/alpha of the unexplored edges, top-down again once the
   frontier holds fewer than n/beta vertices *)
let alpha = 15
let beta = 18

let hybrid (g : Graph.t) ~src =
  let n = g.Graph.n in
  let parents = Array.make n (-1) in
  parents.(src) <- src;
  let in_frontier = Array.make n false in
  in_frontier.(src) <- true;
  let frontier_size = ref 1 in
  let frontier_edges = ref (Graph.degree g src) in
  let reached = ref 1 in
  let edges = ref 0 in
  let iters = ref 0 in
  let switches = ref 0 in
  let bottom_up = ref false in
  let unexplored_edges = ref g.Graph.m in
  while !frontier_size > 0 do
    incr iters;
    Icoe_obs.Metrics.observe m_frontier (float_of_int !frontier_size);
    let was = !bottom_up in
    (* Beamer heuristics *)
    if (not !bottom_up) && !frontier_edges * alpha > !unexplored_edges then
      bottom_up := true
    else if !bottom_up && !frontier_size * beta < n then bottom_up := false;
    if was <> !bottom_up then incr switches;
    let next = Array.make n false in
    let next_size = ref 0 and next_edges = ref 0 in
    if !bottom_up then
      (* every unvisited vertex scans its neighbours for a frontier hit *)
      for v = 0 to n - 1 do
        if parents.(v) < 0 then begin
          let k = ref g.Graph.row_ptr.(v) in
          let found = ref false in
          while (not !found) && !k < g.Graph.row_ptr.(v + 1) do
            incr edges;
            let u = g.Graph.adj.(!k) in
            if in_frontier.(u) then begin
              parents.(v) <- u;
              incr reached;
              next.(v) <- true;
              incr next_size;
              next_edges := !next_edges + Graph.degree g v;
              found := true
            end;
            incr k
          done
        end
      done
    else
      for u = 0 to n - 1 do
        if in_frontier.(u) then
          for k = g.Graph.row_ptr.(u) to g.Graph.row_ptr.(u + 1) - 1 do
            incr edges;
            let v = g.Graph.adj.(k) in
            if parents.(v) < 0 then begin
              parents.(v) <- u;
              incr reached;
              if not next.(v) then begin
                next.(v) <- true;
                incr next_size;
                next_edges := !next_edges + Graph.degree g v
              end
            end
          done
      done;
    unexplored_edges := !unexplored_edges - !frontier_edges;
    Array.blit next 0 in_frontier 0 n;
    frontier_size := !next_size;
    frontier_edges := !next_edges
  done;
  record
    {
      parents;
      reached = !reached;
      edges_traversed = !edges;
      iterations = !iters;
      switches = !switches;
    }

(** Validate a parent array: every reached vertex's parent edge exists and
    levels are consistent (parent level = child level - 1). *)
let validate (g : Graph.t) ~src (s : stats) =
  let level = Array.make g.Graph.n (-1) in
  level.(src) <- 0;
  (* compute levels by reference BFS *)
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for k = g.Graph.row_ptr.(u) to g.Graph.row_ptr.(u + 1) - 1 do
      let v = g.Graph.adj.(k) in
      if level.(v) < 0 then begin
        level.(v) <- level.(u) + 1;
        Queue.push v q
      end
    done
  done;
  let ok = ref true in
  Array.iteri
    (fun v p ->
      if p >= 0 && v <> src then begin
        (* edge (p, v) must exist *)
        let found = ref false in
        for k = g.Graph.row_ptr.(p) to g.Graph.row_ptr.(p + 1) - 1 do
          if g.Graph.adj.(k) = v then found := true
        done;
        if not !found then ok := false;
        if level.(v) < 0 || level.(p) <> level.(v) - 1 then ok := false
      end
      else if p < 0 && level.(v) >= 0 then ok := false)
    s.parents;
  !ok

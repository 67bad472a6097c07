(** Heterogeneous work-partitioning auto-tuner — see the mli.

    Everything here is deterministic: the exhaustive sweep visits
    candidates in a fixed order with strict-improvement updates (ties
    keep the earliest), and the annealer draws every random choice from
    one seeded {!Icoe_util.Rng} stream. The paper-default candidate is
    evaluated first and used as the incumbent, which is what makes the
    [best <= default] guarantee structural rather than statistical. *)

type candidate = { split : float; comm : Hwsim.Split.comm }
type objective = candidate -> float
type evaluation = { cand : candidate; makespan : float }
type mode = Exhaustive | Anneal of { seed : int; iters : int }

type result = {
  best : evaluation;
  default : evaluation;
  evaluations : int;
  space : int;
  mode : string;
}

let default_candidate = { split = 1.0; comm = Hwsim.Split.Dedicated }

let mode_name = function
  | Exhaustive -> "exhaustive"
  | Anneal { seed; iters } -> Fmt.str "anneal(seed=%d,iters=%d)" seed iters

(* Memoizing evaluator: the annealer revisits states freely and the
   polish walks neighbourhoods, but each distinct candidate is priced
   once. Keyed on the split's bits so the table never compares floats
   structurally. *)
let evaluator obj =
  let memo = Hashtbl.create 64 in
  let count = ref 0 in
  let ev cand =
    let key = (Int64.bits_of_float cand.split, cand.comm) in
    match Hashtbl.find_opt memo key with
    | Some e -> e
    | None ->
        let m = obj cand in
        if Float.is_nan m then
          invalid_arg "Autotune: objective returned NaN";
        incr count;
        let e = { cand; makespan = m } in
        Hashtbl.add memo key e;
        e
  in
  (ev, count)

let prep_splits splits =
  if Array.length splits = 0 then invalid_arg "Autotune: empty split lattice";
  Array.iter Hwsim.Split.validate splits;
  let s = Array.copy splits in
  Array.sort Float.compare s;
  let out = ref [] in
  Array.iter
    (fun v ->
      match !out with
      | last :: _ when Float.equal last v -> ()
      | _ -> out := v :: !out)
    s;
  Array.of_list (List.rev !out)

let better (a : evaluation) (b : evaluation) = a.makespan < b.makespan

(* Fixed sweep order: ascending split, then placement list order. The
   incumbent starts at the already-evaluated default, so only a strict
   improvement can displace it. *)
let run_exhaustive ev default splits comms =
  let best = ref default in
  Array.iter
    (fun split ->
      List.iter
        (fun comm ->
          let e = ev { split; comm } in
          if better e !best then best := e)
        comms)
    splits;
  !best

(* Greedy steepest-descent polish over the lattice neighbourhood
   (split index +-1, any placement flip). The step-model landscapes are
   quasi-convex in the split — the max of a rising GPU chain and a
   falling CPU chain — so this reliably lands the annealer's endpoint
   on the local (= global) minimum. Ties keep the first neighbour in a
   fixed order; evaluations are memoized, so revisits are free. *)
let polish ev splits comms state e0 =
  let n = Array.length splits and m = Array.length comms in
  let eval_state (i, c) = ev { split = splits.(i); comm = comms.(c) } in
  let rec go (i, c) e =
    let neighbours =
      List.filter
        (fun (i', c') -> i' >= 0 && i' < n && not (i' = i && c' = c))
        ([ (i - 1, c); (i + 1, c) ] @ List.init m (fun c' -> (i, c')))
    in
    let best_n =
      List.fold_left
        (fun acc st ->
          let e' = eval_state st in
          match acc with
          | Some (_, eb) when eb.makespan <= e'.makespan -> acc
          | _ -> Some (st, e'))
        None neighbours
    in
    match best_n with
    | Some (st, e') when e'.makespan < e.makespan -> go st e'
    | _ -> e
  in
  go state e0

let run_anneal ev default ~seed ~iters splits comms_l =
  let comms = Array.of_list comms_l in
  let n = Array.length splits and m = Array.length comms in
  let eval_state (i, c) = ev { split = splits.(i); comm = comms.(c) } in
  let rng = Icoe_util.Rng.create seed in
  (* start at the lattice point nearest the paper default: the largest
     split, placement Dedicated when offered *)
  let start =
    let c0 =
      match
        List.find_index
          (function Hwsim.Split.Dedicated -> true | Inline -> false)
          comms_l
      with
      | Some i -> i
      | None -> 0
    in
    (n - 1, c0)
  in
  let cur = ref start and cur_e = ref (eval_state start) in
  let best_st = ref start and best_e = ref !cur_e in
  (* geometric temperature schedule scaled to the problem: starts at 5%
     of the default makespan, cools three decades *)
  let t0 = Float.max (0.05 *. Float.abs default.makespan) 1e-12 in
  for step = 1 to iters do
    let i, c = !cur in
    let proposal =
      if m > 1 && Icoe_util.Rng.float rng < 0.25 then
        (* flip the communication placement *)
        (i, (c + 1 + Icoe_util.Rng.int rng (m - 1)) mod m)
      else if n = 1 then (i, c)
      else
        (* split-index random walk, reflecting at the lattice edges *)
        let i' = if Icoe_util.Rng.bool rng then i + 1 else i - 1 in
        let i' = if i' < 0 then 1 else if i' >= n then n - 2 else i' in
        (i', c)
    in
    let pe = eval_state proposal in
    let d = pe.makespan -. !cur_e.makespan in
    let t = t0 *. (1e-3 ** (float_of_int step /. float_of_int iters)) in
    if d <= 0.0 || Icoe_util.Rng.float rng < Float.exp (-.d /. t) then begin
      cur := proposal;
      cur_e := pe
    end;
    if better !cur_e !best_e then begin
      best_st := !cur;
      best_e := !cur_e
    end
  done;
  let polished = polish ev splits comms !best_st !best_e in
  if better polished default then polished else default

(** Minimize [objective] over [splits] x [comms]. [splits] (default
    {!Hwsim.Split.lattice}[ ()], 21 points) is sorted and deduplicated;
    [comms] defaults to [[Dedicated; Inline]]. Deterministic: equal
    inputs give equal results, ties keep the earliest candidate in
    sweep order (the default first). Raises [Invalid_argument] on an
    empty lattice or placement list, an invalid split, a negative
    [iters], or an objective returning NaN. *)
let tune ?splits ?(comms = [ Hwsim.Split.Dedicated; Hwsim.Split.Inline ]) mode
    obj =
  let splits =
    prep_splits (match splits with Some s -> s | None -> Hwsim.Split.lattice ())
  in
  (match comms with
  | [] -> invalid_arg "Autotune: empty placement list"
  | _ :: _ -> ());
  let ev, count = evaluator obj in
  let default = ev default_candidate in
  let space = Array.length splits * List.length comms in
  let best, mode_s =
    match mode with
    | Exhaustive -> (run_exhaustive ev default splits comms, mode_name mode)
    | Anneal { seed; iters } ->
        if iters < 0 then invalid_arg "Autotune: negative annealing budget";
        if space <= iters then
          (* the whole space fits in the budget: sweep it — this is what
             makes the two modes agree exactly on small lattices *)
          (run_exhaustive ev default splits comms,
           mode_name mode ^ ":exhaustive")
        else (run_anneal ev default ~seed ~iters splits comms, mode_name mode)
  in
  { best; default; evaluations = !count; space; mode = mode_s }

let exhaustive ?splits ?comms obj = tune ?splits ?comms Exhaustive obj

let anneal ?(seed = 42) ?(iters = 160) ?splits obj =
  tune ?splits (Anneal { seed; iters }) obj

(** Synthetic multi-language corpus generator standing in for the
    Wikipedia corpus (Sec 4.4): documents are drawn from an LDA generative
    model whose topics have Zipf-distributed word frequencies, and the
    vocabulary is split into disjoint per-"language" blocks so the
    dictionary grows with language count exactly as the 390-language
    Wikipedia dictionary did. *)

type doc = { words : int array; counts : int array }

type t = {
  docs : doc array;
  vocab : int;
  k_true : int;
  topic_word : float array array;  (** ground-truth topics, rows sum to 1 *)
}

let doc_length d = Array.fold_left ( + ) 0 d.counts

(* Zipf weights over [n] items *)
let zipf n =
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let z = Icoe_util.Stats.sum w in
  Array.map (fun x -> x /. z) w

(** Generate [ndocs] documents over [languages] disjoint vocabulary blocks
    of [vocab_per_lang] words, [topics_per_lang] topics each. Each topic
    concentrates on its own slice of the language's vocabulary with a Zipf
    profile, giving well-separated recoverable topics. Every document
    draws 60 tokens. *)
let generate ?(ndocs = 200) ?(languages = 2) ?(vocab_per_lang = 120)
    ?(topics_per_lang = 3) ~(rng : Icoe_util.Rng.t) () =
  let k = languages * topics_per_lang in
  let vocab = languages * vocab_per_lang in
  let slice = vocab_per_lang / topics_per_lang in
  let topic_word =
    Array.init k (fun t ->
        let lang = t / topics_per_lang in
        let sub = t mod topics_per_lang in
        let row = Array.make vocab 1e-9 in
        let zw = zipf slice in
        for i = 0 to slice - 1 do
          row.((lang * vocab_per_lang) + (sub * slice) + i) <- zw.(i)
        done;
        let z = Icoe_util.Stats.sum row in
        Array.map (fun x -> x /. z) row)
  in
  let docs =
    Array.init ndocs (fun _ ->
        (* sparse document-topic mixture: mostly one topic *)
        let main = Icoe_util.Rng.int rng k in
        let theta =
          Array.init k (fun t -> if t = main then 0.8 else 0.2 /. float_of_int (k - 1))
        in
        let counts = Hashtbl.create 32 in
        for _ = 1 to 60 do
          let t = Icoe_util.Rng.categorical rng theta in
          let w = Icoe_util.Rng.categorical rng topic_word.(t) in
          Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
        done;
        let pairs = Hashtbl.fold (fun w c acc -> (w, c) :: acc) counts [] in
        let pairs =
          List.sort
            (fun (w1, c1) (w2, c2) ->
              match Int.compare w1 w2 with 0 -> Int.compare c1 c2 | n -> n)
            pairs
        in
        {
          words = Array.of_list (List.map fst pairs);
          counts = Array.of_list (List.map snd pairs);
        })
  in
  { docs; vocab; k_true = k; topic_word }

(** Total token count of the corpus. *)
let tokens t = Array.fold_left (fun acc d -> acc + doc_length d) 0 t.docs

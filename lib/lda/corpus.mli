(** Synthetic multi-language corpus generator standing in for the
    Wikipedia corpus (Sec 4.4): LDA-generated documents whose topics have
    Zipf word profiles, with the vocabulary split into disjoint
    per-"language" blocks so the dictionary grows with language count the
    way the 390-language Wikipedia dictionary did. *)

type doc = { words : int array; counts : int array }

type t = {
  docs : doc array;
  vocab : int;
  k_true : int;
  topic_word : float array array;  (** ground-truth topics, rows sum to 1 *)
}

val doc_length : doc -> int

val generate :
  ?ndocs:int -> ?languages:int -> ?vocab_per_lang:int -> ?topics_per_lang:int ->
  rng:Icoe_util.Rng.t -> unit -> t
(** [ndocs] documents of 60 tokens each. *)

val tokens : t -> int

(** The trace feed: a packed synthetic trace read by the pipeline core —
    the paper's synthetic trace simulator (Section 2.3).

    No caches, no predictors: locality outcomes come from the trace's
    pre-assigned bits. Each instruction's miss penalties are charged
    exactly once, on its correct-path execution; wrong-path occupancy is
    still modeled (the pipeline fills with trace instructions after a
    flagged misprediction and squashes them at resolution), but
    wrong-path instructions do not consume locality events — the
    synthetic simulator does not model misspeculated cache accesses,
    as the paper notes.

    The feed holds the trace's code and dependency words, one byte per
    position marking the misses already charged, and two eight-entry
    tables of {!Cache.Hierarchy} access words. [fetch] masks the code
    word, [producer] shifts the dependency word and the accesses read a
    table, so nothing is allocated per instruction. {!Pipeline.run}
    reads it inline: every accessor is [[@inline]]. Every read is
    bounds-checked: a position outside the trace raises
    [Invalid_argument], except that [fetch] answers
    {!Feed.end_of_stream} past the end.

    The word layout is defined here once: the synthetic trace writes
    its words with {!code} and {!dep_bits}, and the feed decodes them. *)

(** {1 Packed words}

    Code word: [bits 0-10] the instruction's {!Feed} word, whose
    producer count is the dependency count (at most six, so the word
    fits), [bits 11-13] the fetch outcome and [bits 14-16] the load
    outcome as {!Cache.Hierarchy.outcome} bits (L1, L2, TLB miss),
    [bits 17+] the originating block. Dependency word: distance [j] in
    bits [\[10j, 10j + 10)]. *)

val code : feed:int -> fetch:int -> load:int -> block:int -> int
(** A code word from the instruction's feed word and two
    {!Cache.Hierarchy.outcome}s. *)

val feed_word : int -> int
(** The {!Feed} word of a code word. *)

val fetch_outcome : int -> Cache.Hierarchy.outcome
val load_outcome : int -> Cache.Hierarchy.outcome

val block : int -> int
(** The originating block of a code word. *)

val dep_bits : int
(** Bits per distance in a dependency word. *)

val dep : int -> int -> int
(** [dep word j] is distance [j] of a dependency word; 0 is no
    dependency. *)

(** {1 The feed} *)

type t

val create :
  ?wrong_path_locality:bool ->
  Config.Machine.t ->
  code:int array ->
  deps:int array ->
  t
(** A feed over the trace whose code and dependency words are [code]
    and [deps] (one entry per position each). [wrong_path_locality]
    (default false, the paper's behaviour) lets wrong-path fetches and
    loads consume their positions' locality flags too — a rough
    stand-in for the misspeculated-path cache accesses the paper notes
    its synthetic simulator omits (Section 2.3, citing Bechem et al.);
    used by the ablation experiment to bound that omission's impact.
    The arrays are only read, so one trace may feed several runs at
    once. *)

val fetch : t -> int -> int
(** The feed word at a position, or {!Feed.end_of_stream} past the
    end. *)

val producer : t -> int -> int -> int
(** [producer t pos j] is the position of producer [j] of the
    instruction at [pos], or [-1] for none. *)

val ifetch_access : t -> int -> wrong_path:bool -> int
(** The {!Cache.Hierarchy} access word of fetching a position. *)

val load_access : t -> int -> wrong_path:bool -> int
(** The access word of a load issuing at a position. *)

val store_access : t -> int
(** The access word of a store's commit write: a hit. *)

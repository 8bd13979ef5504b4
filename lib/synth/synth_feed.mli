(** Feed adapter running a synthetic trace through the shared pipeline —
    the paper's synthetic trace simulator (Section 2.3).

    No caches, no predictors: locality outcomes come from the trace's
    pre-assigned bits. Each instruction's miss penalties are charged
    exactly once, on its correct-path execution; wrong-path occupancy is
    still modeled (the pipeline fills with trace instructions after a
    flagged misprediction and squashes them at resolution), but
    wrong-path instructions do not consume locality events — the
    synthetic simulator does not model misspeculated cache accesses,
    as the paper notes.

    The feed reads the packed {!Trace} words at each position: [fetch]
    masks the code word, [producer] shifts the dependency word, and the
    accesses read a table of {!Cache.Hierarchy} access words, so nothing
    is allocated per instruction. One byte per position marks the
    misses already charged. Every read is bounds-checked: a position
    outside the trace raises [Invalid_argument], except that [fetch]
    answers {!Uarch.Feed.end_of_stream} past the end. *)

type t

val of_trace : ?wrong_path_locality:bool -> Config.Machine.t -> Trace.t -> t
(** [wrong_path_locality] (default false, the paper's behaviour) lets
    wrong-path fetches and loads consume their positions' locality flags
    too — a rough stand-in for the misspeculated-path cache accesses the
    paper notes its synthetic simulator omits (Section 2.3, citing
    Bechem et al.); used by the ablation experiment to bound that
    omission's impact. The trace is only read, so one trace may feed
    several runs at once. *)

include Uarch.Feed.S with type t := t

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

    One feed serves both forms of a trace, and reads the packed
    {!Trace} words at the slot a {!Uarch.Feed.Ring} assigns: a
    materialized trace sits behind a full ring, whose window covers the
    whole trace; a streamed walk is pulled by {!Generate.next} into a
    window-sized trace buffer deep enough for every squash rewind, in
    memory independent of the trace length. [fetch] masks the code
    word, [producer] shifts the dependency word, and the accesses read
    a table of {!Cache.Hierarchy} access words, so nothing is allocated
    per instruction. The "miss already charged" marks live in the ring
    slot each position occupies, so for the same walk the two forms
    produce bit-identical {!Uarch.Metrics}. *)

type t

val of_trace : ?wrong_path_locality:bool -> Config.Machine.t -> Trace.t -> t
(** [wrong_path_locality] (default false, the paper's behaviour) lets
    wrong-path fetches and loads consume their positions' locality flags
    too — a rough stand-in for the misspeculated-path cache accesses the
    paper notes its synthetic simulator omits (Section 2.3, citing
    Bechem et al.); used by the ablation experiment to bound that
    omission's impact. The trace is only read, so one trace may feed
    several runs at once. *)

val of_stream :
  ?wrong_path_locality:bool -> Config.Machine.t -> Generate.stream -> t
(** Feed straight from a walk, with no intermediate {!Trace.t}.
    [wrong_path_locality] as in {!of_trace}. *)

include Uarch.Feed.S with type t := t

(** Alias-method (Walker/Vose) categorical sampler: O(1) draws from a
    fixed discrete distribution, replacing the linear/binary CDF scans
    of {!Histogram.sample} on the synthetic generator's hot path.

    Construction uses float arithmetic once; sampling is integer-only:
    a uniform bucket pick plus at most one raw 32-bit draw compared
    against a precomputed fixed-point acceptance threshold. Buckets
    whose threshold saturates at 2^32 (including every single-bucket
    table) accept without drawing, so degenerate distributions sample
    deterministically and cheaply.

    Tables are immutable after construction and safe to share across
    domains. *)

type t

val of_weights : values:int array -> weights:int array -> t
(** [of_weights ~values ~weights] samples [values.(i)] with probability
    [weights.(i) / total]. Zero- and negative-weight entries are
    dropped; an all-zero table is the empty sampler. Raises
    [Invalid_argument] on a length mismatch. *)

val of_histogram : Histogram.t -> t
(** Table over a histogram's support (in increasing value order),
    weighted by the observation counts. *)

val sample : t -> Prng.t -> int
(** Draw a value with probability proportional to its weight. Raises
    [Invalid_argument] on an empty table (check {!is_empty} first —
    what "no observations" means is the caller's policy). *)

val is_empty : t -> bool

val draws_per_sample : t -> int option
(** The {!Prng.bits} draws one {!sample} makes: [Some 0] with one
    bucket, [Some 1] with 2 to 2^30 - 1. [None] for an empty table and
    for larger ones, whose exact fallback draws a varying number of
    times. *)

val exists_value : t -> ('a -> int -> bool) -> 'a -> bool
(** [exists_value t p env] is [true] when [p env v] holds for a value
    [v] that {!sample} can return. It over-approximates that set: a
    bucket's own value counts when its threshold is positive, its alias
    when the threshold is below 2^32. Passing [env] apart from a
    top-level [p] keeps the call free of closure allocation. *)

val length : t -> int
(** Number of surviving (positive-weight) buckets. *)

val total : t -> int
(** Sum of the surviving weights. *)

val to_arrays : t -> int array * int array * int array * int
(** [(values, alias, thr, total)] — the exact internal state, for the
    plan codec. Round-tripping through {!of_arrays} reproduces the
    sampler bit-for-bit (no float reconstruction), which the
    store-cached plan tier relies on for determinism. *)

val of_arrays :
  values:int array -> alias:int array -> thr:int array -> total:int -> t
(** Inverse of {!to_arrays}. Raises [Invalid_argument] on mismatched
    lengths or a threshold outside [0, 2^32]. *)

(** Integer-keyed frequency histogram with cumulative sampling.

    This is the workhorse of the statistical profile: dependency-distance
    distributions, basic-block size distributions and instruction-mix
    tables are all histograms. Sampling uses the cumulative distribution
    as prescribed by the paper's synthetic-trace-generation algorithm.

    Representation: the support is one unboxed int array of (value,
    count) pairs in ascending value order, grown by doubling. An empty
    histogram holds no table at all, only a four-word record, so a
    profile's never-filled distributions (the WAW/WAR tables of a
    machine with renaming) cost next to nothing.

    Costs, for a support of [n] distinct values: {!count} and an
    {!add}/{!add_many} of a value already present take a binary
    search, O(log n), and allocate nothing; a new value shifts the
    larger ones up, O(n). {!is_empty}, {!support_size} and
    {!max_value} are O(1). {!total}, {!iter}, {!support}, {!mean},
    {!stddev} and {!merge} walk the pairs in value order, O(n)
    ({!merge} adds each of its source's values). The first {!sample}
    or {!percentile} after a mutation builds the cumulative counts,
    O(n); later ones are a binary search. {!copy} is O(n) and sized to
    the support. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** An empty histogram. It allocates no table unless [initial_capacity]
    is positive, in which case room for that many distinct values is
    allocated at once. *)

val add : t -> int -> unit
(** [add h v] records one observation of value [v]. *)

val add_many : t -> int -> int -> unit
(** [add_many h v n] records [n] observations of [v]. *)

val count : t -> int -> int
(** Observations of an exact value. *)

val total : t -> int
(** Total number of observations. *)

val is_empty : t -> bool

val mean : t -> float
(** Mean of the observed values; 0 for an empty histogram. Exact
    whenever every value times its count, and their sum, are below
    2{^53} in magnitude. *)

val stddev : t -> float
(** Population standard deviation, summed in ascending value order; 0
    for an empty histogram. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter h f] applies [f value count] over the support in increasing
    value order. *)

val support : t -> int list
(** Observed values, increasing. *)

val support_size : t -> int
(** Number of distinct observed values: [List.length (support h)]. *)

val max_value : t -> int
(** Largest observed value; raises [Invalid_argument] if empty. *)

val sample : t -> Prng.t -> int
(** Draw a value with probability proportional to its count, using the
    cumulative distribution. Raises [Invalid_argument] if empty. *)

val percentile : t -> float -> int
(** [percentile h p] is the nearest-rank [p]-quantile for [p] in
    [\[0, 1\]]: the smallest observed value covering at least
    [ceil (p *. total)] observations ([p = 0] is the minimum, [p = 1]
    the maximum). Unlike {!mean}, which silently returns 0 for an empty
    histogram, this raises [Invalid_argument] when the histogram is
    empty (or [p] is outside [\[0, 1\]]) — an empty distribution has no
    quantiles. *)

val merge : t -> t -> unit
(** [merge dst src] adds all of [src]'s observations into [dst] —
    how diag pools the per-domain / per-slot histograms before
    computing divergences. *)

val copy : t -> t

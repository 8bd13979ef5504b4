(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator takes an explicit [Prng.t]
    so that whole experiments are reproducible from a single seed. The
    implementation is PCG32 (O'Neill, 2014): a 64-bit LCG state with an
    output permutation, small, fast and statistically solid for simulation
    purposes. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each workload / experiment its own stream so adding a
    consumer does not perturb the others. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits32 : t -> int32
(** Next raw 32 random bits. *)

val bits : t -> int
(** The same 32 random bits as a non-negative [int] in \[0, 2^32) —
    the raw draw fixed-point samplers compare against integer
    thresholds, avoiding the int-to-float conversion of
    {!unit_float}. *)

type jump
(** A precomputed jump of a fixed number of steps, valid for every
    stream. *)

val jump : int -> jump
(** [jump k] precomputes a jump over [k] draws. Raises
    [Invalid_argument] when [k < 0]. *)

val advance : t -> jump -> unit
(** [advance t (jump k)] leaves [t] exactly where [k] calls of {!bits}
    would, in constant time and without allocating. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n). Requires [0 < n <= 2^30]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in \[lo, hi\] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val unit_float : t -> float
(** Uniform in \[0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to \[0,1\]). *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian via Box-Muller. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts Bernoulli trials until first success, i.e.
    support {1, 2, ...} with mean [1/p]. Requires [0 < p <= 1]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed positive float. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_weighted : t -> weights:float array -> int
(** Index sampled proportionally to [weights] (non-negative, not all
    zero). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

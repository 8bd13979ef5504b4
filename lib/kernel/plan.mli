(** The compiled execution plan.

    A plan is the reduced statistical flow graph
    ({!Profile.Sfg.reduce}) lowered into flat integer arrays and
    {!Stats.Alias} samplers so the per-instruction synthesis path does
    no hash lookups, no float division and no linear CDF scans:

    - nodes get dense indices (SFG key order, so the layout is
      independent of hash-table iteration order);
    - edge transition counts and dependency-distance histograms become
      alias tables (O(1) draws);
    - every miss/taken/mispredict rate becomes a fixed-point integer
      threshold compared against one raw 32-bit PRNG draw;
    - per-slot class, flags and dependency count are packed into one
      int.

    Plans hold nothing of a machine (the [kernel] library does not
    depend on [config]): the pipeline configuration is applied at
    simulation time, so one plan serves every machine config at a
    given reduction.

    Layout details live in DESIGN.md Section 7. *)

type t = {
  k : int;  (** history depth the SFG was profiled with *)
  reduction : int;  (** reduction factor R baked into [node_occ] *)
  use_edges : bool;  (** false for k = 0: blocks are drawn independently *)
  node_block : int array;  (** dense node index -> basic-block id *)
  node_occ : int array;  (** reduced occurrence counts ([occurrences / R]) *)
  node_slot_off : int array;
      (** length nnodes + 1; node i's slots are
          \[[node_slot_off.(i)], [node_slot_off.(i+1)]) *)
  edges : Stats.Alias.t array;
      (** per node, successor sampler over dense {e node indices};
          empty = dead end (walk restarts) *)
  thr_taken : int array;
      (** fixed-point taken thresholds; saturated ({!always}) when the
          node recorded no branch executions: taken by default *)
  thr_mis : int array;
  thr_misred : int array;
      (** threshold of P(mispredict) + P(redirect): one raw draw [u]
          classifies the branch — mispredict if [u < thr_mis], else
          redirect if [u < thr_misred] *)
  thr_l1i : int array;
  thr_l2i : int array;  (** conditional on an L1 I-miss *)
  thr_itlb : int array;
  thr_l1d : int array;
  thr_l2d : int array;  (** conditional on an L1 D-miss *)
  thr_dtlb : int array;
  slot_meta : int array;  (** packed per-slot metadata, see accessors *)
  slot_dep_off : int array;
      (** length nslots + 1; slot j's dependency samplers are
          \[[slot_dep_off.(j)], [slot_dep_off.(j+1)]) *)
  slot_deps : Stats.Alias.t array;
      (** operand-distance samplers in operand order, then the waw and
          war samplers when the profile recorded them *)
}

val nnodes : t -> int
val nslots : t -> int

val instructions : t -> int
(** The length of every trace the plan generates: each node's slots
    once per reduced visit, [sum_i node_occ.(i) * slots_i]. *)

val max_deps : int
(** {!Profile.Sfg.max_deps}, 6: the most dependency samplers a slot
    carries, so that a synthetic instruction packs its distances into
    one word. *)

(** {1 Fixed-point rates}

    The single zero-denominator-guarded rate helper: every probability
    the compiled generator samples goes through {!threshold} at
    compile time and {!sample_rate} at run time. *)

val two32 : int
(** 4294967296 = 2^32, the saturated threshold. *)

val always : int
(** Alias for {!two32}: the threshold of a certain event. *)

val threshold : num:int -> den:int -> int
(** [threshold ~num ~den] is the fixed-point encoding of [num/den]:
    [0] when [den <= 0] or [num <= 0] (the empty-count guard), {!two32}
    when [num >= den], else [num * 2^32 / den] computed in 64-bit. *)

val sample_rate : Prng.t -> int -> bool
(** [sample_rate rng thr] flips the event. Thresholds [<= 0] and
    [>= two32] return without consuming randomness, mirroring
    [Prng.bernoulli]'s short-circuits at p = 0 and p = 1. *)

(** {1 Packed slot metadata}

    Exactly what generation reads of a slot. *)

val pack_meta : klass:Isa.Iclass.t -> ndeps:int -> int

val meta_is_load : int -> bool
val meta_is_branch : int -> bool
val meta_has_dest : int -> bool

val meta_class : int -> int
(** The class index ({!Isa.Iclass.index}). *)

val meta_ndeps : int -> int
(** Total dependency-sampler count (operands, then waw and war when
    present). *)

(** {1 Codec}

    Line-oriented decimal text, canonical for a given plan, written and
    read in one pass each through {!Profile.Serialize.Text}. Alias
    tables serialize their exact internal arrays, so a decoded plan
    samples bit-identically to the freshly compiled one — the property
    the persistent store tier relies on. The two calls are timed under
    the [plan.encode] and [plan.decode] telemetry spans. *)

val version : int
(** Format version; bump on any layout or sampler change so stale
    store entries miss instead of decoding garbage. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] with a line-numbered message, and nothing else, on
    malformed input or a version mismatch. Nothing is allocated in
    proportion to a length field before the input has shown room for
    that many items, so allocation stays proportional to the input.

    A decoded plan holds what generation indexes without bounds checks:
    [node_slot_off] and [slot_dep_off] start at 0, never decrease and
    end at the slot and sampler counts; each slot's class is valid and
    its dependency count equals its [slot_dep_off] span, at most
    {!max_deps}; occurrence counts are non-negative; edge samplers
    return node indices and dependency samplers distances in
    \[0, {!Profile.Sfg.dep_cap}\]. *)

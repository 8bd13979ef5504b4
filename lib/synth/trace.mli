(** The synthetic trace (Figure 1, step 2 output): a short sequence of
    statistically generated instructions. Every instruction carries its
    class, positional RAW dependencies and pre-assigned locality
    outcomes, so the trace-driven simulator needs neither caches nor
    branch predictors (Section 2.3).

    A trace is two int arrays with one entry per instruction and no
    per-instruction record: a {e code} word and a word of packed
    dependency distances. {!Generate} writes them in place and the
    pipeline's trace feed ({!Uarch.Trace_feed}) reads them; {!get}
    rebuilds an {!inst} view for diagnostics and tests.

    The word layout is {!Uarch.Trace_feed}'s, re-exported below: [bits
    0-10] of a code word are the instruction's {!Uarch.Feed} word, whose
    producer count is the dependency count (at most {!max_deps}, so the
    word fits), [bits 11-13] the fetch outcome and [bits 14-16] the load
    outcome as {!Cache.Hierarchy.outcome} bits (L1, L2, TLB miss),
    [bits 17+] the originating block. Dependency word: distance [j] in
    bits [\[10j, 10j + 10)]. *)

type branch = { taken : bool; mispredict : bool; redirect : bool }

type inst = {
  klass : Isa.Iclass.t;
  deps : int array;
      (** dependency distance per operand; 0 means no dependency *)
  l1i_miss : bool;
  l2i_miss : bool;
  itlb_miss : bool;
  l1d_miss : bool;  (** loads only *)
  l2d_miss : bool;
  dtlb_miss : bool;
  block : int;  (** originating basic block (for diagnostics) *)
  branch : branch option;
}

type t = private {
  code : int array;  (** per instruction, see above *)
  deps : int array;  (** per instruction, as long as [code] *)
  k : int;  (** order of the source SFG *)
  reduction : int;  (** the paper's synthetic trace reduction factor R *)
  seed : int;
}

val max_deps : int
(** 6: the most dependencies one instruction carries (a profiled
    instruction has at most three operands plus waw and war). *)

val create : ?k:int -> ?reduction:int -> ?seed:int -> int -> t
(** A zeroed trace of [n] instructions, for a writer to fill. *)

val length : t -> int

val get : t -> int -> inst
(** The instruction at an index, as a freshly built record. *)

val of_insts : ?k:int -> ?reduction:int -> ?seed:int -> inst array -> t
(** [k], [reduction] and [seed] default to 0. Raises [Invalid_argument]
    on more than {!max_deps} dependencies or a distance outside
    [\[0, Profile.Sfg.dep_cap\]]. *)

val to_insts : t -> inst array

val well_formed : inst -> bool

(** {1 Packed words}

    {!Uarch.Trace_feed}'s layout, so the writer and the reader share one
    definition. *)

val code : feed:int -> fetch:int -> load:int -> block:int -> int
(** A code word from the instruction's feed word (its producer count at
    most {!max_deps}) and two {!Cache.Hierarchy.outcome}s. *)

val feed_word : int -> int
(** The {!Uarch.Feed} word of a code word. *)

val fetch_outcome : int -> Cache.Hierarchy.outcome
val load_outcome : int -> Cache.Hierarchy.outcome

val dep_bits : int
(** Bits per distance in a dependency word. *)

val dep : int -> int -> int
(** [dep word j] is distance [j] of a dependency word. *)

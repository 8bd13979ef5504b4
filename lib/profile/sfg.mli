(** The statistical flow graph (SFG) — the paper's first contribution
    (Section 2.1.1).

    A node is a basic block *qualified by its [k] predecessor blocks*:
    the same block with a different history is a different node, so every
    annotated statistic is conditioned on recent control flow,
    [P(c | B_n, B_n-1, ..., B_n-k)]. Edges carry transition counts, i.e.
    [P(B_n | B_n-1, ..., B_n-k)].

    Per node the SFG stores: occurrence count; per-instruction-slot
    class, operand count and one dependency-distance histogram per
    operand (capped at {!dep_cap}); the branch characteristics of the
    terminating branch (taken / fetch-redirect / mispredict
    probabilities, Section 2.1.2); and the six cache/TLB miss
    probabilities.

    Node keys pack the block-id history into one integer (16 bits per
    block, so programs are limited to 65536 basic blocks — far above the
    suite's sizes). *)

val dep_cap : int
(** 512, the paper's bound on dependency distances. *)

val max_k : int
(** Highest supported SFG order (3, as evaluated in Figure 4). *)

val max_deps : int
(** 6: the most dependency distances a slot's synthetic instruction
    draws, its operands plus the WAW and WAR distances of a machine
    without renaming, so that they pack into one word. A slot therefore
    has at most [max_deps - 2] operands. *)

type slot = {
  klass : Isa.Iclass.t;
  mutable nsrcs : int;
  mutable deps : Stats.Histogram.t array;  (** one histogram per operand *)
  waw : Stats.Histogram.t;
      (** distance to the previous writer of the destination register —
          recorded only when profiling for a machine without renaming
          (the in-order extension of Section 2.1.1); empty otherwise *)
  war : Stats.Histogram.t;
      (** distance to the last reader of the destination register *)
}

type node = {
  key : int;
  block : int;  (** current basic block id *)
  mutable occurrences : int;
  mutable slots : slot array;  (** grows as the block is first observed *)
  edges : (int, int ref) Hashtbl.t;  (** successor key -> transition count *)
  (* terminating-branch characteristics *)
  mutable br_execs : int;
  mutable br_taken : int;
  mutable br_mispredict : int;
  mutable br_redirect : int;
  (* locality-event characteristics *)
  mutable fetches : int;
  mutable l1i_misses : int;
  mutable l2i_misses : int;
  mutable itlb_misses : int;
  mutable loads : int;
  mutable l1d_misses : int;
  mutable l2d_misses : int;
  mutable dtlb_misses : int;
}

type t

val create : k:int -> t

val key_of_history : int array -> len:int -> int
(** Pack [len] block ids (current block first) into a node key. *)

val find_or_add : t -> key:int -> block:int -> node
val find : t -> key:int -> node option
val node_count : t -> int
(** Table 3's metric. *)

val total_occurrences : t -> int
val iter_nodes : t -> (node -> unit) -> unit
val nodes : t -> node list
val record_transition : node -> succ_key:int -> unit

val restrict : t -> keep:(node -> bool) -> t
(** Sub-SFG containing exactly the nodes for which [keep] holds.  Node
    records are SHARED with the parent, not copied — mutation through
    either graph is visible in both; treat restricted views as
    read-only.  Edge tables still reference dropped nodes; consumers
    (kernel compile, steady-state analysis) already ignore edges whose
    successor is absent. *)

(** Derived per-node probabilities (0 when the denominator is 0). *)

val taken_rate : node -> float
val mispredict_rate : node -> float
val redirect_rate : node -> float
val l1i_rate : node -> float
val l2i_rate : node -> float
val itlb_rate : node -> float
val l1d_rate : node -> float
val l2d_rate : node -> float
val dtlb_rate : node -> float

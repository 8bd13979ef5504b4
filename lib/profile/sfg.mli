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
val record_transition : node -> succ_key:int -> int ref
(** Count one transition to [succ_key] and return that edge's count
    cell, so a caller that sees the same transition again can count it
    without a lookup. A new edge enters the table after the node's
    earlier ones. *)

val restrict : t -> keep:(node -> bool) -> t
(** Sub-SFG containing exactly the nodes for which [keep] holds.  Node
    records are SHARED with the parent, not copied — mutation through
    either graph is visible in both; treat restricted views as
    read-only.  Edge tables still reference dropped nodes; {!reduce}
    drops an edge whose successor is absent. *)

(** {1 The reduced graph (Section 2.2)}

    Every estimator reads the reduction through these three: the
    compiled plan the generator walks, the analytical estimate and the
    stratified partition. *)

val survives : reduction:int -> node -> bool
(** [occurrences / reduction > 0]: the node keeps at least one visit
    at reduction factor R. The one survival rule. *)

type reduced = {
  survivors : node array;  (** the surviving nodes, ascending key *)
  visits : int array;  (** [occurrences / R] per survivor *)
  index : (int, int) Hashtbl.t;  (** survivor key -> dense index *)
}

val reduce : t -> reduction:int -> reduced
(** The graph at reduction factor [reduction]: the nodes {!survives}
    keeps, in key order, so the dense layout never depends on
    hash-table iteration order. Empty when no node survives; each
    caller names that error itself. *)

val successors : reduced -> int -> (int * int) array
(** Survivor [i]'s edges into other survivors as
    [(dense index, transition count)] pairs, ascending successor key.
    An edge into a dropped node is dropped here. *)

(** {1 Totals} *)

type totals = {
  instructions : float;
  by_class : float array;  (** instructions per {!Isa.Iclass.index} *)
  br_execs : float;
  br_taken : float;
  br_mispredict : float;
  br_redirect : float;
  fetches : float;
  l1i_misses : float;
  l2i_misses : float;
  itlb_misses : float;
  loads : float;
  l1d_misses : float;
  l2d_misses : float;
  dtlb_misses : float;
}

val totals : ?weight:(node -> float) -> t -> totals
(** The profile's instruction count (a node contributes its occurrences
    per slot) and its twelve branch and locality counters, each node's
    contribution scaled by [weight] (default 1.0; nodes weighing 0.0
    are skipped). With the default weight every total is an exact
    integer; the analytical estimate passes visits_i / occurrences_i
    to read them as the reduced walk's counts. *)

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

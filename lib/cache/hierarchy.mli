(** The full memory hierarchy of Table 2: split L1 caches, a unified L2,
    I/D TLBs and main memory.

    Each access returns one int, an {e access}: the locality-event bits
    the statistical profile records (an {!outcome}) in its low three
    bits and the resulting latency above them. Nothing is allocated per
    access, and nothing is counted here: the profiler counts each event
    per SFG node from these words, so an L2 miss is attributed to
    instruction or data accesses by the call that returned it
    ({!ifetch} or {!dload}), as the paper's footnote 1 requires. *)

type outcome = int
(** Locality-event bits: [1] L1 miss, [2] L2 miss (meaningful only with
    an L1 miss), [4] TLB miss. *)

val hit : outcome
(** All-hit outcome (perfect-cache mode). *)

val outcome : l1_miss:bool -> l2_miss:bool -> tlb_miss:bool -> outcome

val l1_miss : int -> bool
(** On an outcome or an access, whose low bits are its outcome. *)

val l2_miss : int -> bool
val tlb_miss : int -> bool

val latency_of_outcome : Config.Machine.t -> instruction:bool -> outcome -> int
(** The latency the synthetic-trace simulator assigns to pre-recorded
    outcome bits (Section 2.3's special actions): this is the single
    place where outcome bits translate to cycles, shared by the EDS and
    synthetic paths so both charge identical costs. *)

val access_of_outcome : Config.Machine.t -> instruction:bool -> outcome -> int
(** The access word an access with these outcome bits returns. *)

val latency : int -> int
(** An access's latency in cycles. *)

type t

val create : Config.Machine.t -> t

val ifetch : t -> int -> int
(** Instruction fetch at a PC: probes I-TLB, L1 I-cache and (on miss) L2.
    Returns the access word. *)

val dload : t -> int -> int
(** Data load at an address: probes D-TLB, L1 D-cache, L2. *)

val dstore : t -> int -> int
(** Data store: write-allocate; the returned latency models store-buffer
    drain cost and is usually hidden by the LSQ. *)

(** Set-associative cache with true-LRU replacement.

    Used for the L1 instruction cache, L1 data cache and the unified L2.
    The model tracks tags only — the simulators never need data values,
    only each access's hit/miss outcome. It keeps no counters: the
    profiler counts misses per SFG node from the outcomes
    {!Hierarchy} returns, and the pipeline counts its own events. *)

type t

val create : Config.Machine.cache -> t

val access : t -> int -> bool
(** [access c addr] probes and fills: returns [true] on hit. A miss
    allocates the block (write-allocate for stores, fill for loads and
    instruction fetches), evicting the LRU way. *)

val probe : t -> int -> bool
(** Hit test with no state change. *)

val sets : t -> int
val assoc : t -> int

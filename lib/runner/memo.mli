(** A content-keyed, domain-safe memo table.

    [get] either returns the cached value for a key or computes it with
    the supplied thunk — exactly once, even when several domains ask for
    the same key concurrently: later askers block until the first
    computation publishes its result. A thunk that raises poisons the
    entry for its waiters (they re-raise) and then clears it, so a
    subsequent [get] retries. *)

type 'v t

val create : ?name:string -> unit -> 'v t
(** [name] additionally folds hit/miss counts into the {!Telemetry}
    registry as counters [<name>.hits] / [<name>.misses] (recorded only
    while telemetry is enabled; {!hits}/{!misses} below always count). *)

val get : 'v t -> key:string -> (unit -> 'v) -> 'v

val mem : 'v t -> key:string -> bool
(** Whether [get] would answer [key] without running its thunk: the
    value is published or being computed. Counts nothing. *)

val hits : 'v t -> int
(** Number of [get] calls answered from the table (including waits on an
    in-flight computation of the same key). *)

val misses : 'v t -> int
(** Number of [get] calls that ran their thunk. *)

val size : 'v t -> int

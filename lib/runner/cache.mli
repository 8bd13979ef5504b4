(** Memoized EDS references and statistical profiles.

    Both are pure functions of (stream, configuration, options), so one
    cache shared across a whole experiment run computes each distinct
    combination exactly once — the paper's own argument for amortizing a
    one-time profiling cost over a design-space exploration, applied to
    the reproduction harness itself.

    Lookups go through two tiers: the in-process {!Memo} tables first,
    then (when the cache was created with one) the persistent
    content-addressed {!Store}, and only then compute. The store makes
    profile-once / simulate-many hold across process boundaries: a
    fresh invocation answers from disk instead of re-simulating. A
    store entry that fails verification is quarantined and recomputed —
    never fatal.

    Callers identify the instruction stream with an explicit
    [stream_key] (workload name, suite, seed offset, length, phasing —
    whatever determines the generated stream) and pass a thunk that
    builds a {e fresh} generator; the configuration and every profiling
    option are folded into the key here. *)

type t

type stats = {
  profile_hits : int;
  profile_misses : int;
  reference_hits : int;
  reference_misses : int;
  plan_hits : int;
  plan_misses : int;
  estimate_hits : int;
  estimate_misses : int;
  profile_computes : int;
      (** actual {!Profile.Stat_profile.collect} executions — unlike
          [profile_misses], lookups the store answered do not count, so
          a sweep can assert it collected at most once *)
  plan_computes : int;  (** actual {!Kernel.Compile.plan} executions *)
  reference_computes : int;  (** actual EDS simulator executions *)
  store_hits : int;  (** lookups answered by the persistent store *)
  store_misses : int;  (** store lookups that fell through to compute *)
  store_bytes_written : int;
  store_quarantined : int;
}

val create : ?store:Store.t -> unit -> t
(** Without [store] the cache is purely in-memory (PR 1 behaviour). *)

val stats : t -> stats
(** Store counters are all 0 when the cache has no store. *)

val stats_json : stats -> Telemetry.Json.t
(** Flat object, one integral [Num] per {!stats} field, in declaration
    order — the payload of the server's [cache-stats] reply. *)

val cfg_key : Config.Machine.t -> string
(** Content digest of a machine configuration, derived from
    {!Config.Machine.canonical} — stable across processes and OCaml
    versions, so it is safe in persistent store keys. *)

val profile :
  t ->
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Profile.Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  stream_key:string ->
  (unit -> unit -> Isa.Dyn_inst.t option) ->
  Profile.Stat_profile.t
(** Memoized {!Statsim.profile}. Defaults mirror
    {!Profile.Stat_profile.collect} exactly (k = 1, dep_cap = 512,
    delayed branch profiling with an IFQ-sized FIFO), and the defaults
    are normalized into the key so explicit-default and implicit calls
    share an entry. *)

val plan :
  t ->
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  Kernel.Plan.t
(** Memoized {!Kernel.Compile.plan}. The key is the MD5 of the
    profile's canonical bytes plus the resolved reduction factor —
    plans are machine-independent, so one entry serves every pipeline
    configuration of a sweep. A profile that came through {!profile}'s
    store tier is keyed by the digest of the bytes that tier already
    held (the encoding it stored, or the payload it decoded), so a
    warm call never re-encodes it; any other profile (no store, or a
    [-p FILE] profile) is encoded once per physical value. Store
    entries round-trip through the exact-integer plan codec and
    therefore sample bit-identically to a freshly compiled plan. *)

val profile_plan :
  t ->
  ?k:int ->
  Config.Machine.t ->
  stream_key:string ->
  target_length:int ->
  (unit -> unit -> Isa.Dyn_inst.t option) ->
  (Kernel.Plan.t, string) result
(** The compiled plan of {!profile}'s profile (same key, other options
    at their defaults), for a caller that needs the profile only to
    reach it. A profile in the memo takes {!profile} then {!plan}. With
    a store and no memo entry, the plan key comes from the stored
    profile's verified bytes: their MD5 and the instruction count on
    their meta line. That read counts as one store hit and is kept in
    memory, so each profile key is read from disk at most once. The
    profile is decoded only when no plan is stored under that key, to
    compile one. [Error] is {!Kernel.Compile.check_survivors}' message
    when [target_length]'s reduction empties the graph, warm or cold. *)

val estimate :
  t ->
  ?reduction:int ->
  ?target_length:int ->
  Config.Machine.t ->
  Profile.Stat_profile.t ->
  Analytical.Steady_state.estimate
(** Memoized {!Analytical.Steady_state.estimate} at the resolved
    reduction — the instant-answer tier behind the server's [estimate]
    op. In-memory only (the solve is microseconds; no store round
    trip). *)

val reference :
  t ->
  ?max_instructions:int ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  stream_key:string ->
  (unit -> unit -> Isa.Dyn_inst.t option) ->
  Statsim.result
(** Memoized {!Statsim.reference} (execution-driven simulation). Only
    the integer pipeline metrics are persisted; the derived floats are
    recomputed from them, bit-identical to the uncached run. *)

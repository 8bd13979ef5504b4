(** Profile -> {!Plan} lowering.

    Runs once per (profile, reduction) pair; the output is purely a
    function of the reduced SFG, so plans are shareable across machine
    configs, replicas and processes (via the plan codec and the runner
    cache). *)

val derive_reduction : ?reduction:int -> ?target_length:int -> int -> int
(** [derive_reduction ?reduction ?target_length total] resolves the
    reduction factor R from the caller's choice of either an explicit
    [reduction] or a [target_length] (ceiling division, so the trace
    stays at or under target); defaults to 100 (the paper's R). Raises
    [Invalid_argument] when both are given. *)

val check_survivors :
  ?reduction:int ->
  ?target_length:int ->
  Profile.Stat_profile.t ->
  (unit, string) result
(** [Error], naming R, when the reduction {!derive_reduction} resolves
    leaves no node that {!Profile.Sfg.survives}: the empty graph
    {!plan} rejects. Request boundaries call it before any engine
    runs. *)

val plan :
  ?reduction:int -> ?target_length:int -> Profile.Stat_profile.t -> Plan.t
(** Compile the profile's graph at the resolved reduction
    ({!Profile.Sfg.reduce}): its survivors' dense indices, visit counts
    and edges become the plan's. Raises
    [Invalid_argument] on [R < 1] or when reduction empties the graph
    (the messages name [Generate.generate], which compiles through
    here). *)

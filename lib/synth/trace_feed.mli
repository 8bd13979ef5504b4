(** What the two synthetic feeds share: the fetched record of a trace
    instruction and the charge-once locality rules. {!Synth_feed} and
    {!Stream_feed} differ only in how a stream position maps to a
    charge slot — the position itself over a materialized trace, the
    position modulo the window over a stream. *)

type charges
(** Per-slot "miss latency already charged" bits, one set for
    instruction fetches and one for loads. *)

val charges : ?wrong_path_locality:bool -> Config.Machine.t -> int -> charges
(** [charges cfg n] has [n] slots, all uncharged. [wrong_path_locality]
    as in {!Synth_feed.create}. *)

val clear : charges -> int -> unit
(** Uncharge a slot before a new position occupies it. *)

val fetched : int -> Trace.inst -> Uarch.Feed.fetched
(** The instruction at a stream position, as the pipeline sees it. *)

val ifetch_access :
  charges ->
  Trace.inst ->
  slot:int ->
  wrong_path:bool ->
  Cache.Hierarchy.outcome * int

val load_access :
  charges ->
  Trace.inst ->
  slot:int ->
  wrong_path:bool ->
  Cache.Hierarchy.outcome * int
(** A correct-path access pays the instruction's pre-assigned miss flags
    the first time its slot is charged and hits afterwards (a re-fetch
    after a squash). A wrong-path access hits — or, with
    [wrong_path_locality], pays the flags without consuming the
    charge. *)

(** Execution-driven feed: the reference simulator's instruction source,
    the one alternative to the trace feed that {!Pipeline.run} reaches
    by direct calls.

    Wraps a dynamic instruction stream with a real memory hierarchy and a
    real branch predictor. Branch predictions (including speculative RAS
    operations) are made the first time a position is produced — i.e., at
    fetch — and memoized, so wrong-path re-fetches after a squash replay
    the same outcome; the direction tables and BTB are trained at
    dispatch, matching the paper's speculative update at dispatch time.
    Wrong-path instruction and data accesses do go through the caches,
    the EDS-vs-synthetic difference Section 2.3 points out.

    Each position's feed word, producers and dynamic instruction are
    kept in per-slot arrays at the slot its {!Feed.Ring} assigns: the
    feed builds no record per instruction.

    [perfect_caches] / [perfect_bpred] implement Figure 4/5's idealized
    modes: every access hits, every branch is predicted correctly.
    Raises [Invalid_argument] on an instruction with more than three
    source registers. *)

type t

val create :
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  t

val fetch : t -> int -> int
(** The feed word of the instruction at a position, or
    {!Feed.end_of_stream}; the same word on every call for one
    position. *)

val producer : t -> int -> int -> int
(** [producer t pos j] is the stream position of RAW producer [j] of
    the instruction at [pos], for [j] below its producer count; a
    negative value is no producer. Only positions already fetched may
    be asked. *)

val ifetch_access : t -> int -> wrong_path:bool -> int
(** The {!Cache.Hierarchy} access word of fetching a position. *)

val load_access : t -> int -> wrong_path:bool -> int
(** The access word of a load issuing at a position. *)

val on_commit_store : t -> int -> int
(** A store leaves the LSQ at commit and performs its memory write;
    answers the write's access word. *)

val on_dispatch : t -> int -> wrong_path:bool -> unit
(** An instruction enters the RUU — the point of the paper's
    speculative branch-predictor update. *)

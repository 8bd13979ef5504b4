(** Execution-driven feed: the reference simulator's instruction source.

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

include Feed.S with type t := t

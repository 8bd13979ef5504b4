(** Cycle-level out-of-order superscalar pipeline, SimpleScalar
    sim-outorder style: fetch into an IFQ (stopping on taken branches,
    I-cache misses and fetch redirections), in-order dispatch into the
    RUU/LSQ, out-of-order issue to functional-unit pools, writeback with
    wakeup, in-order commit.

    Branch misprediction is modeled the way Section 2.3 prescribes for
    the synthetic-trace simulator (and the execution-driven reference
    uses the same core): when a mispredicted branch is fetched the
    pipeline keeps fetching subsequent stream positions flagged
    wrong-path — they contend for the IFQ, RUU, LSQ and functional units
    — and when the branch completes they are squashed, the fetch position
    rewinds to just after the branch, and fetch restarts after the
    configured penalty.

    Per-cycle work tracks events, not the window size. Because dispatch
    is in order and a squash removes a suffix, the in-flight seqs are
    one contiguous range, so the RUU is a ring indexed by
    [seq - head_seq] with no lookup table. Writeback pops a min-heap of
    issued slots keyed on completion cycle. Issue walks an age-ordered
    list of Ready slots. The IFQ is a preallocated ring. The same heap
    top tells the event-driven loop how far it may jump. *)

module Make (F : Feed.S) : sig
  val run :
    ?max_instructions:int ->
    ?skip_idle:bool ->
    ?commit_hook:(committed:int -> cycle:int -> unit) ->
    Config.Machine.t ->
    F.t ->
    Metrics.t
  (** Run to end-of-stream (or until [max_instructions] commit). Raises
      [Failure] if the machine stops committing for an implausibly long
      time (a model bug, not a workload property): four times the
      machine's worst fetch miss, load miss, longest operation and
      front-end penalties combined, and at least 200,000 cycles.
      [commit_hook] fires after every committed instruction with the
      running totals — used to carve per-interval statistics out of one
      warm run.

      [skip_idle] (default [true]) makes the run loop event-driven:
      cycles in which no stage can make progress — long cache-miss
      shadows, fetch-redirect and squash-recovery windows — are charged
      to the cycle, occupancy and stall accounting in bulk and skipped,
      jumping to the next completion or fetch wake-up. The resulting
      metrics are identical to the dense loop's (a tested invariant);
      pass [~skip_idle:false] to force the cycle-by-cycle loop.

      Each run adds its per-stage work to the [uarch.wakeups],
      [uarch.issue_examined], [uarch.cycles_skipped] and [uarch.squashed]
      telemetry counters, once at the end. *)
end

(** Ablations of the paper's design choices (not a paper artifact; this
    repository's addition):

    - {b FIFO size} of the delayed-update branch profiler. The paper
      argues the natural size is the IFQ depth because lookups happen at
      fetch and (speculative) updates at dispatch; sweeping 1..64 shows
      profiled MPKI moving from the immediate-update underestimate to
      the EDS value and beyond.
    - {b Dependency-distance cap}. The paper limits distributions to 512
      entries; sweeping 32..512 shows how aggressively truncation can be
      applied before IPC predictions degrade.
    - {b Wrong-path locality charging}: bounds the impact of the
      misspeculated-path cache accesses the synthetic simulator omits
      (Section 2.3's noted limitation).
    - {b Squash semantics} of the FIFO profiler: the paper's literal
      squash-and-repredict vs the memoized-prediction variant matching
      this repository's reference simulator. *)

type fifo_row = { bench : string; eds_mpki : float; by_fifo : (int * float) list }
type cap_row = { bench : string; by_cap : (int * float) list (** cap, IPC err % *) }

type wp_row = {
  bench : string;
  eds_ipc : float;
  no_wp_err : float;  (** percent; the paper's synthetic simulator *)
  wp_err : float;  (** with wrong-path locality charging *)
}

type squash_row = {
  bench : string;
  eds : float;
  memoized : float;
  repredict : float;  (** MPKI under each squash mode *)
}

val plan : Runner.Plan.t

(** SimPoint-style representative sampling (Sherwood et al.), the
    comparison point of the paper's Figure 8 and the source of Table 1's
    simulation points.

    The stream is cut into fixed-size intervals; each interval is
    summarized by its basic-block vector (execution frequency of each
    basic block, instruction-weighted), randomly projected to a low
    dimension, and clustered with k-means; the interval closest to each
    centroid represents its cluster with a weight proportional to
    cluster size. Detailed (execution-driven) simulation then runs only
    on the representatives. *)

module Kmeans = Kmeans
(** Re-exported clustering backend. *)

type pick = { interval_index : int; weight : float }

type t = {
  interval : int;  (** instructions per interval *)
  n_intervals : int;
  picks : pick list;
  clusters : int;
}

val analyze : interval:int -> (unit -> Isa.Dyn_inst.t option) -> t
(** One profiling pass over the stream. Basic-block vectors are
    projected to 16 dimensions and clustered for k up to 10. *)

val node_features : Profile.Sfg.node -> float array
(** Behavioural feature vector of one SFG node — branch, cache and TLB
    rates plus squashed block-shape terms — the phase-classification
    input for stratified replication (PR 10). *)

val classify_nodes : Profile.Sfg.node list -> Kmeans.result
(** Cluster SFG nodes into phase strata over {!node_features} with
    {!Kmeans.best} (BIC selection up to 4 strata, seed 1).
    Deterministic given the node list order — pass nodes key-sorted.
    Raises [Invalid_argument] on an empty list. *)

val simulated_instructions : t -> int
(** Total detailed-simulation budget (picks * interval). *)

val simulate_warm :
  Config.Machine.t ->
  t ->
  stream_factory:(unit -> unit -> Isa.Dyn_inst.t option) ->
  float
(** The weighted IPC of the representative intervals: each pick's CPI,
    weighted by its cluster, measured inside a single warm
    execution-driven run of the whole stream — the
    checkpoint-with-warm-state methodology production SimPoint
    deployments use. At this reproduction's scaled-down interval sizes
    the cold-start horizon of the L2 exceeds any affordable per-pick
    warmup, so warm state isolates SimPoint's {e sampling} quality from
    warmup modeling. The detailed-simulation budget for reporting
    purposes is still [simulated_instructions] — a real deployment pays
    the warm state from checkpoints, not from re-simulation. *)

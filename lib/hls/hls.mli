(** The HLS statistical simulation baseline (Oskin, Chong & Farrens,
    ISCA 2000), as described in Sections 4.3 and 5 of the reproduced
    paper — the comparison point of Figure 7.

    HLS models the workload without control-flow context: it generates
    one hundred basic blocks whose sizes follow a normal distribution
    around the measured average, fills them with instructions drawn from
    the *overall* instruction-mix distribution, assigns dependencies
    from the *overall* dependency-distance distribution and locality
    events from the *overall* branch predictability and cache miss
    rates, then walks this graph at random. Everything the SFG
    conditions on basic-block identity and history, HLS draws from
    global aggregates — that difference is exactly what Figure 7
    measures.

    The generated trace uses the same {!Synth.Trace} representation and
    the same trace-driven pipeline as the SFG-based flow, so the
    comparison isolates the workload model (both papers calibrated
    against the same reference simulator). *)

type profile = {
  instructions : int;
  mix : float array;  (** weight per {!Isa.Iclass.t} index, all 12 classes *)
  block_size_mean : float;
  block_size_stddev : float;
  nsrcs_by_class : float array;  (** mean operand count per class *)
  deps : Stats.Histogram.t;  (** global dependency-distance distribution *)
  taken_rate : float;
  mispredict_rate : float;
  redirect_rate : float;
  l1i_rate : float;
  l2i_rate : float;  (** conditional on an L1I miss *)
  itlb_rate : float;
  l1d_rate : float;
  l2d_rate : float;  (** conditional on an L1D miss *)
  dtlb_rate : float;
}

val collect : Config.Machine.t -> (unit -> Isa.Dyn_inst.t option) -> profile
(** Global profiling: functional cache simulation plus immediate-update
    branch profiling (HLS predates delayed-update modeling). *)

val of_stat_profile : Profile.Stat_profile.t -> profile
(** Aggregate an SFG profile into HLS's global statistics — provably the
    same numbers [collect] measures when given the same stream and an
    immediate-update profile. *)

val generate : profile -> target_length:int -> seed:int -> Synth.Trace.t

val run :
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  target_length:int ->
  seed:int ->
  Uarch.Metrics.t
(** Full HLS flow: collect, generate, simulate. *)

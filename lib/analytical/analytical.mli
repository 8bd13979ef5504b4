(** First-order analytical performance model, in the spirit of the
    analytical approaches the paper cites as the other fast-estimation
    family (Noonburg & Shen; Sorin et al.; later formalized by
    Karkhanis & Smith's interval model).

    The model consumes the same statistical profile as the synthetic
    trace generator but computes IPC in closed form instead of
    simulating: a base CPI from issue width and the dependency-distance
    distribution, plus independent penalty terms for branch
    mispredictions and memory events, each weighted by its per-
    instruction probability and partially overlapped according to the
    window size. No trace, no pipeline.

    It reads the profile through the reduced graph
    ({!Profile.Sfg.reduce}, paper Section 2.2): the synthetic walk
    visits each surviving node exactly [occurrences / R] times, so
    weighting node i's profiled counts by [visits_i / occurrences_i]
    gives the synthetic trace's exact makeup at reduction factor R.
    At R = 1 every weight is 1.0 and the model reads the whole profile.

    It exists as a *baseline*: Section 5 of the paper argues such models
    either stay first-order (fast, crude) or blow up in state space;
    the [analytical] experiment quantifies where it loses against
    statistical simulation. *)

type breakdown = {
  base_cpi : float;  (** width + dataflow component *)
  branch_cpi : float;  (** misprediction and redirect stalls *)
  imem_cpi : float;  (** instruction-fetch miss stalls *)
  dmem_cpi : float;  (** load miss stalls after overlap *)
  total_cpi : float;
}

type estimate = {
  nodes : int;  (** surviving nodes of the reduced graph *)
  mix : (Isa.Iclass.t * float) list;
      (** instruction-class mix of the reduced walk, all 12 classes in
          {!Isa.Iclass.all} order; sums to 1 *)
  breakdown : breakdown;
  ipc : float;  (** [1 /. breakdown.total_cpi] *)
}

val estimate :
  ?reduction:int -> Config.Machine.t -> Profile.Stat_profile.t -> estimate
(** The model at reduction factor [reduction] (default 1). Raises
    [Invalid_argument] when [reduction < 1] or when no instruction
    survives the reduction (an empty profile). *)

val predict : Config.Machine.t -> Profile.Stat_profile.t -> breakdown
(** [(estimate cfg p).breakdown]: the model at R = 1. *)

val ipc : Config.Machine.t -> Profile.Stat_profile.t -> float
(** [(estimate cfg p).ipc]. *)

val pp_breakdown : Format.formatter -> breakdown -> unit

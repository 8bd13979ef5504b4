(** Statistics of a synthetic trace and a fidelity report against the
    profile that generated it — the sanity instrument for Figure 1's
    step 2: whatever the trace is supposed to preserve (instruction mix,
    basic-block sizes, dependency distances, locality-event rates) can
    be checked number-by-number. *)

type t = {
  instructions : int;
  mix : float array;  (** fraction per {!Isa.Iclass.t} index *)
  mean_block_size : float;
  mean_dep_distance : float;
  deps_per_inst : float;
  taken_rate : float;
  mispredict_rate : float;
  redirect_rate : float;
  l1i_rate : float;
  l1d_rate : float;  (** per load *)
  l2d_rate : float;  (** per load *)
}

val of_profile : Profile.Stat_profile.t -> t
(** The same statistics, computed from the statistical profile — the
    values the trace is expected to reproduce. *)

type fidelity = {
  trace : t;
  expected : t;
  worst_mix_gap : float;  (** max absolute mix-fraction difference *)
  rate_gaps : (string * float) list;  (** per rate, absolute difference *)
}

val fidelity : Profile.Stat_profile.t -> Trace.t -> fidelity
val pp : Format.formatter -> fidelity -> unit

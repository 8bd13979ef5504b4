(** Table 4: relative accuracy — how well statistical simulation tracks
    the *trend* of each metric when one architectural parameter moves
    between adjacent design points, averaged over the benchmarks. Five
    sweeps, as in the paper: window size (RUU/LSQ), processor width,
    IFQ size, branch predictor size and cache size. The paper's
    headline: relative errors generally below 3%. *)

type family = Window | Width | Ifq | Bpred | Cache_size

val families : family list

val configs : family -> (string * Config.Machine.t) list
(** The sweep's design points, in order, with display labels. *)

val metric_names : family -> string list

val plan : Runner.Plan.t

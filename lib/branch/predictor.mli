(** The full branch prediction unit of Table 2: an 8K-entry hybrid
    selector between an 8K-entry bimodal predictor and an 8Kx8K two-level
    local predictor (local history XOR branch PC), a 512-entry 4-way BTB
    and a 64-entry return address stack.

    [lookup] is the fetch-time query: it performs direction and target
    prediction (including speculative RAS push/pop) and, because the
    simulators are trace-driven and know the resolved outcome, directly
    classifies the prediction into the paper's three branch events
    (Section 2.1.2): correct, fetch redirection, or misprediction.

    [update] trains the direction tables and BTB with the resolved
    outcome. The caller decides *when* to update — immediately after
    lookup (the naive profiling the paper criticizes), or with a delay
    (at dispatch in the pipeline, or when leaving the profiling FIFO).

    The unit keeps no counters: the profiler counts each resolution per
    SFG node and the pipeline counts branches in [Uarch.Metrics]. *)

type t

val create : Config.Machine.bpred -> t

type resolution =
  | Correct
  | Fetch_redirect
      (** correct taken/not-taken direction but the target had to be
          recomputed (BTB miss on a direct branch) *)
  | Mispredict
      (** wrong direction, or wrong/unknown target of an indirect
          branch or return *)

val resolution_to_string : resolution -> string

val lookup : t -> pc:int -> branch:Isa.Dyn_inst.branch -> resolution

val update : t -> pc:int -> branch:Isa.Dyn_inst.branch -> unit

val ras_copy : t -> Ras.t
(** Snapshot of the return address stack, for speculation rewind. *)

val ras_restore : t -> Ras.t -> unit

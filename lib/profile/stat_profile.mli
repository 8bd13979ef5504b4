(** One-pass statistical profiling (Figure 1, step 1): builds the
    order-[k] SFG with all microarchitecture-independent characteristics
    (instruction classes, operand counts, dependency-distance
    distributions) and the microarchitecture-dependent locality events
    (branch probabilities via the immediate or delayed-update profiler,
    cache/TLB miss probabilities via functional cache simulation). *)

type t = {
  sfg : Sfg.t;
  k : int;
  machine : string;
      (** {!Config.Machine.canonical} of the machine profiled: the
          locality statistics hold only for its caches and predictor *)
  instructions : int;  (** profiled dynamic instruction count *)
  perfect_caches : bool;
  perfect_bpred : bool;
  branches : int;
  mispredicts : int;  (** per the profiling branch model *)
}

val collect :
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  t
(** Defaults: [k = 1] (the paper's choice after Figure 4) and delayed
    branch profiling with a FIFO sized to the IFQ (the paper's proposal).
    [dep_cap] truncates recorded dependency distances (default and
    maximum {!Sfg.dep_cap} = 512, the paper's bound).
    [perfect_caches] / [perfect_bpred] zero the corresponding event
    probabilities, for the idealized studies of Figures 4 and 5. *)

val collect_chunked :
  ?k:int ->
  ?dep_cap:int ->
  ?branch_mode:Branch_profiler.mode ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  chunk_length:int ->
  t list
(** Split one stream into consecutive chunks and build a separate profile
    per chunk — the per-phase / per-sample scenarios of Section 4.4.
    Unlike calling {!collect} per chunk, the cache, TLB, predictor and
    register state stay warm across chunk boundaries, as they would in
    the paper's contiguous-sample profiling of a long execution. Both
    collectors run one loop, so a stream read as a single chunk profiles
    exactly as {!collect} does. *)

val mpki : t -> float
(** Branch mispredictions per 1,000 instructions as seen by the
    *profiler* — the "branch profiling" bars of Figure 3. *)

val mean_block_size : t -> float
(** Average dynamic basic-block size (instructions per block
    occurrence), used by the HLS baseline. *)

(** Machine configuration records: the paper's Table 2 baseline plus the
    derived configurations used by the sensitivity sweeps of Table 4 and
    the design-space exploration of Section 4.6. *)

type cache = {
  size_bytes : int;
  assoc : int;
  block_bytes : int;
  hit_latency : int;  (** cycles *)
}

type tlb = {
  entries : int;
  tlb_assoc : int;
  page_bytes : int;
  miss_penalty : int;  (** cycles to walk on a TLB miss *)
}

type predictor_kind =
  | Hybrid_local
      (** Table 2's predictor: meta-chooser between bimodal and a
          two-level local predictor *)
  | Gshare  (** global-history XOR PC into one pattern table *)
  | Bimodal_only

type bpred = {
  kind : predictor_kind;
  meta_entries : int;  (** hybrid selector table *)
  bimodal_entries : int;
  local_hist_entries : int;  (** two-level predictor level-1 table *)
  local_pattern_entries : int;  (** two-level predictor level-2 table *)
  local_hist_bits : int;  (** local history length *)
  btb_sets : int;
  btb_assoc : int;
  ras_entries : int;
}

type fu_pool = {
  int_alu : int;
  int_mult_div : int;
  mem_ports : int;  (** load/store units *)
  fp_alu : int;
  fp_mult_div : int;
}

type t = {
  icache : cache;
  dcache : cache;
  l2 : cache;  (** unified; misses counted separately for I and D *)
  itlb : tlb;
  dtlb : tlb;
  mem_latency : int;  (** round-trip to main memory, cycles *)
  bpred : bpred;
  mispredict_restart : int;
      (** extra front-end cycles between branch resolution and the first
          correct-path fetch; the remainder of the paper's 14-cycle penalty
          emerges from pipeline refill *)
  fetch_redirect_penalty : int;
      (** fetch bubble for a correct-direction BTB miss *)
  ifq_size : int;
  ruu_size : int;
  lsq_size : int;
  fetch_speed : int;  (** fetch width = decode_width * fetch_speed *)
  decode_width : int;
  issue_width : int;
  commit_width : int;
  fu : fu_pool;
  in_order : bool;
      (** issue instructions in program order and model WAW/WAR hazards
          (no register renaming) — the extension the paper sketches in
          Section 2.1.1 for in-order or rename-limited machines *)
}

val baseline : t
(** Table 2 of the paper. *)

val hls_baseline : t
(** The simplified SimpleScalar default configuration used for the HLS
    comparison of Section 4.3 (4-wide, 16KB L1 caches, smaller RUU). *)

val op_latency : Isa.Iclass.t -> int
(** Execution latency in cycles, excluding memory access time for
    loads/stores (added by the cache model). *)

val scale_caches : t -> float -> t
(** Multiply all cache capacities by a power-of-two factor (Table 4's
    cache sweep: base/4 ... base*4). *)

val scale_bpred : t -> float -> t
(** Multiply all predictor table sizes by a power-of-two factor. *)

val with_window : t -> ruu:int -> lsq:int -> t
val with_width : t -> int -> t
(** Set decode = issue = commit width. *)

val with_ifq : t -> int -> t

val in_order_variant : t -> t
(** An in-order-issue version of a configuration: same structures, no
    register renaming (WAW/WAR hazards enforced). *)

val with_predictor : t -> predictor_kind -> t

(** {1 Design-space axes}

    The named integer knobs a design-space sweep may vary: window and
    queue sizes ([ruu], [lsq], [ifq]), machine widths ([decode_width],
    [issue_width], [commit_width], the composite [width] that sets all
    three, [fetch_speed]), cache geometry ([icache_kb], [dcache_kb],
    [l2_kb], and the matching [_assoc] axes), branch-predictor sizing
    ([bpred_entries] — all four tables in lockstep — [btb_sets],
    [ras_entries]) and [mem_latency]. Each axis owns its getter and
    setter so sweep code never touches the record shape. *)

type axis = {
  axis_name : string;
  axis_get : t -> int;
  axis_set : t -> int -> t;
      (** Raises [Invalid_argument] for a value {!check_axis} rejects —
          sweep files are user input. *)
  axis_max : int;
      (** The largest value the axis takes: the largest a run can
          allocate and finish with (2^16 RUU entries, 2^10 for the
          widths, 64 MiB caches, 2^20 predictor entries, ...), or 2^30
          cycles for [mem_latency]. *)
  axis_pow2 : bool;
      (** Values must be powers of two: [bpred_entries], whose tables
          index by mask. *)
}

val check_axis : axis -> int -> unit
(** Raises [Invalid_argument] when a value is outside
    [\[1, axis_max\]], or is not a power of two on an [axis_pow2]
    axis; the check [axis_set] applies. *)

val validate : t -> (unit, string) result
(** The cross-field rules no one field's bound states. So far one: a
    cache (icache, dcache, L2) has no more ways than blocks. A set
    keeps all its ways, so more ways than blocks would model a larger
    cache than configured. [Error] names the cache and both counts. *)

val axes : axis list
(** Every sweepable axis, in a stable documentation order. *)

val axis_names : string list

val find_axis : string -> axis option

val canonical : t -> string
(** A stable, exhaustive textual rendering of every field, for use as a
    persistent content key. Unlike [Marshal]-based digests it does not
    change with the OCaml version or the in-memory representation: two
    configurations are equal iff their canonical strings are equal. It is
    the record's one field-by-field rendering: store keys hash it, and a
    statistical profile carries it as the name of the machine it was
    collected on. *)

val profiled : t -> t
(** The configuration to profile at for a machine: {!baseline} with
    every field profiling reads taken from the machine — the cache and
    TLB geometry (not their [hit_latency] and [miss_penalty]:
    profiling reads outcomes, not cycles), the branch predictor,
    [ifq_size] (the delayed-update FIFO) and [in_order]. This is the
    one list of the fields profiling reads: machines with equal answers
    share a profile (DSE groups its points by it, and every Table 4
    family profiles at it), and the rest of the machine (window,
    widths, latencies) is applied only when the synthetic trace is
    simulated. *)

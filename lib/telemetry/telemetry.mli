(** Pipeline observability: monotonic span timers, named counters and
    gauges in one process-wide registry.

    Collection is {e off} by default. It is switched on for the whole
    process by [REPRO_TELEMETRY=1] (read once at startup) or by
    {!set_enabled}. A disabled instrument is free: every operation is a
    single atomic flag read followed by a return — no allocation, no
    clock read, no locking — so instrumentation can stay in the
    simulator's hot paths permanently.

    All updates are lock-free atomics, safe under the runner's Domain
    pool; the registry mutex is taken only when a new instrument is
    interned (typically at module initialization). Span totals
    accumulate across domains, so under a parallel pool a span's total
    can exceed wall-clock time — it measures work, not elapsed time. *)

(** Minimal JSON values: enough to emit the metrics document and the
    bench summary, and to read them back in the CI perf gate. No
    external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact render. Integral floats print without a fractional part;
      non-finite numbers print as [null]. *)

  val of_string :
    ?max_depth:int -> ?max_string:int -> string -> (t, string) result
  (** Parse a complete JSON document ([Error] carries an offset-tagged
      message). Numbers become [Num]; the standard string escapes
      (quote, backslash, slash, b, f, n, r, t, uXXXX) are decoded, with
      code points truncated to one byte — this reader targets the ASCII
      documents this library itself emits.

      The reader also accepts adversarial input (the server feeds it
      raw socket payloads): nesting deeper than [max_depth] (default
      1000), any single decoded string longer than [max_string] bytes
      (default 16 MiB), and numeric literals longer than 512 characters
      are all rejected with an offset-tagged [Error] instead of blowing
      the stack or the heap; truncated documents report the offset at
      which input ran out. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k], if any. *)

  val to_num : t -> float option
  val to_str : t -> string option
end

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Instruments}

    Creation interns by name: two calls with the same name return the
    same instrument, so independent modules (or repeated
    [Cache.create]s) share one accumulator. *)

type span
(** A named accumulator of timed sections: call count, total and max
    duration in nanoseconds (monotonic clock). *)

val span : string -> span

val time : span -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()], attributing its duration to [s]. The
    duration is recorded even when [f] raises. When collection is
    disabled this is exactly [f ()]. *)

type timer
(** A started clock, for sections that do not fit a closure. *)

val start : unit -> timer
val stop : span -> timer -> unit
(** [stop s t] records the time elapsed since [start]. A [timer]
    obtained while collection was disabled records nothing. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge
(** A last-value-wins float (worker-pool width, SFG node count, ...). *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

type histogram
(** A lock-free frequency instrument for non-negative integer
    observations (dependency distances, queue occupancies, run
    lengths), counted in the cells of {!Stats.Qsketch}: values below 16
    get a cell each, and above that every power-of-two range splits
    into 16 linear cells, so quantiles carry at most
    {!Stats.Qsketch.relative_error}. The same cells back {!Window}.
    Every cell, the count and the sum are atomic counters, so totals
    are exact under the runner's Domain pool. The cell array is
    allocated by the first enabled observation: a histogram that never
    fires holds none, and like counters a disabled histogram costs one
    atomic flag read per observation. *)

val histogram : string -> histogram
val observe : histogram -> int -> unit
(** [observe h v] records one observation of [v] (negative values clamp
    to 0). No-op while collection is disabled. *)

val observe_many : histogram -> int -> int -> unit
(** [observe_many h v n] records [n] observations of [v] with one atomic
    add to its cell, the count and the sum. *)

val histogram_count : histogram -> int
(** Total observations recorded so far. *)

(** {1 Event capture (Chrome trace export)}

    Orthogonal to metric collection: when capturing is on, every span
    section additionally appends a timestamped event, so the schedule
    itself — which domain ran which section when — can be exported as
    Chrome trace-event JSON and inspected in [chrome://tracing] or
    Perfetto. Off by default; enabling capture also enables metric
    collection (events are recorded on the span-stop path). *)

type event = {
  ev_name : string;
  ev_start_ns : int;  (** monotonic-clock start, ns *)
  ev_dur_ns : int;
  ev_tid : int;  (** numeric id of the recording domain *)
}

val set_capture : bool -> unit
(** Enabling clears any previously captured events and switches metric
    collection on; disabling leaves the captured events readable. *)

val capturing : unit -> bool

val with_event : string -> (unit -> 'a) -> 'a
(** Run a section under a dynamic (non-interned) name — per-job labels.
    Records an event only while capturing; otherwise exactly [f ()]. *)

val events : unit -> event list
(** Captured events sorted by start time. *)

val chrome_trace : unit -> Json.t
(** The captured events as a Chrome trace-event document: one complete
    ("ph":"X") event per span section with microsecond timestamps, one
    named thread track per domain, under the standard [traceEvents]
    key. Loadable in [chrome://tracing] and Perfetto. *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds, as an int — the time base
    used by spans, {!Window} and {!Trace}. *)

(** {1 Rolling windows}

    Windowed instruments for SLO-style "last N minutes" statistics: a
    rotating ring of slots, each holding the same lock-free
    [Stats.Qsketch] cells, count and sum as a registry {!histogram}
    (cells allocated by the slot's first sketched observation).
    Observation is one index computation plus two or three atomic adds;
    slot turnover is claimed by CAS, and the winner zeroes the slot
    before publishing its new epoch, so observers of that epoch wait out
    the zeroing (one atomic store per cell) instead of losing counts to
    it. An observation stamped with an interval the slot has already
    rotated past is dropped. Queries sum the cells of all in-window
    slots into a sketch with {!Stats.Qsketch.of_counts} and report
    count / mean / p50 / p95 / p99.

    Unlike the registry instruments above, windows are NOT gated on
    {!enabled} — callers owning a hot path gate themselves (one atomic
    read) before calling {!Window.observe}. *)
module Window : sig
  type t

  type stat = {
    w_count : int;
    w_sum : int;
    w_mean : float;
    w_p50 : int;  (** nearest-rank, bounded relative error *)
    w_p95 : int;
    w_p99 : int;
  }

  val empty_stat : stat

  val create : ?sketch:bool -> window_ns:int -> slots:int -> unit -> t
  (** [create ~window_ns ~slots ()] covers the last [window_ns]
      nanoseconds with [slots] ring slots. [~sketch:false] keeps count
      and sum only and never allocates cells (quantiles read 0) — for
      ratio numerators such as deadline misses. *)

  val observe : ?now:int -> t -> int -> unit
  (** Record one non-negative observation. [?now] (monotonic ns)
      defaults to {!now_ns}; tests pass it explicitly for deterministic
      rotation. *)

  val query : ?now:int -> t -> stat
  val count : ?now:int -> t -> int
end

(** {1 Request-scoped traces}

    A per-request span tree, created at frame decode and carried with
    the request through queue and workers; finished spans are appended
    to the Chrome-trace capture buffer when {!capturing} is on, so
    request traces ride the existing export path. *)
module Trace : sig
  type t

  val create : id:string -> unit -> t
  (** Opens the root ["request"] span at the current monotonic time. *)

  val id : t -> string

  val span : t -> string -> (unit -> 'a) -> 'a
  (** Run a stage under a named child span of the innermost open span.
      Records the duration even when the stage raises. *)

  val add : t -> string -> start_ns:int -> dur_ns:int -> unit
  (** Attach an already-measured span (e.g. queue wait measured between
      two threads). *)

  val mark : ?n:int -> t -> string -> unit
  (** Count a high-frequency boundary event (e.g. one per replica)
      without allocating a span per occurrence; totals appear under
      [marks] in {!to_json}. *)

  val finish : t -> unit
  (** Close the root span and any stage left open. *)

  val to_json : t -> Json.t
  (** [{"id", "root": span tree (start_ns relative to root, dur_ns,
      children), "marks": {name: count}}]. *)
end

(** {1 Snapshots} *)

type span_stat = {
  span_name : string;
  calls : int;
  total_ns : int;
  max_ns : int;
}

type histogram_stat = {
  hist_name : string;
  count : int;  (** total observations *)
  sum : int;  (** sum of observed values (mean = sum/count) *)
  p50 : int;
      (** {!Stats.Qsketch.quantile} of the observations; 0 when there
          are none *)
  p95 : int;
  p99 : int;
  buckets : (int * int) list;
      (** ({!Stats.Qsketch.lo} of the cell, observations) for non-empty
          cells, in increasing order *)
}

type snapshot = {
  spans : span_stat list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_stat list;
}
(** Every registered instrument (including untouched ones), each section
    sorted by name. *)

val snapshot : unit -> snapshot

val span_stat : snapshot -> string -> span_stat option
val counter_total : snapshot -> string -> int
(** [counter_total snap name] is 0 when [name] is not registered. *)

(** {1 Renders} *)

val json_of_snapshot : snapshot -> Json.t
(** An object with four arrays: [spans] (name, calls, total_ns, max_ns,
    total_seconds, max_seconds), [counters] (name, value), [gauges]
    (name, value) and [histograms] (name, count, sum, mean, p50, p95,
    p99, buckets as lo/count pairs). *)

val render_json : snapshot -> string
(** The snapshot under a single top-level [telemetry] key, plus a
    newline — a complete JSON document, distinguishable from report
    documents. *)

val render_text : Format.formatter -> snapshot -> unit
(** Human-readable block (spans with calls/total/mean/max, then
    counters, then gauges, then histograms with count/mean/p50/p95/p99);
    instruments that never fired are elided. *)

val prom_type : Buffer.t -> string -> string -> unit
(** [prom_type buf name typ] writes a family's [# TYPE name typ] line. *)

val prom_sample :
  Buffer.t -> string -> (string * string) list -> float -> unit
(** [prom_sample buf name labels v] writes one sample line of the
    Prometheus text format. Label values are escaped (backslash, double
    quote and newline); integral values below 1e15 print as integers,
    everything else as [%.12g]. Every Prometheus renderer writes
    through this one writer. *)

val render_prometheus : snapshot -> string
(** Prometheus text exposition of the registry: [statsim_counter_total]
    and [statsim_gauge] families labelled by instrument name,
    [statsim_span_calls_total] / [statsim_span_total_ns] /
    [statsim_span_max_ns] labelled by span, and one [statsim_hist]
    histogram family with cumulative buckets, one per non-empty cell,
    whose [le] is that cell's {!Stats.Qsketch.hi}. Dotted instrument
    names appear verbatim as label values (legal in the exposition
    format); every family carries the [statsim_] prefix. *)

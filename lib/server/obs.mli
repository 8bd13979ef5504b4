(** The daemon's observability plane: per-op rolling SLO metrics,
    cumulative outcome counters, in-flight/queue gauges, Prometheus
    text exposition, and a structured JSON access log.

    Process-global, like [Telemetry]: one registry behind one atomic
    enable flag. Disabled, every hook ({!record}, {!incr_inflight},
    ...) is a single [Atomic.get] and a branch — the daemon's hot path
    carries the instrumentation permanently without perf cost. Enabled,
    each recorded request lands in per-op 1-minute (6 x 10 s slots) and
    5-minute (10 x 30 s slots) [Telemetry.Window] rings for service
    time and queue wait, plus count-only rings for the deadline-miss
    and shed ratios. *)

type outcome =
  | Ok_reply
  | Err of Protocol.error_code

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_known_ops : string list -> unit
(** Register the server's dispatchable op set (the daemon does this at
    startup from [Ops.op_names]). Op names are client-supplied:
    {!record} folds any op outside this set into a single ["unknown"]
    cell, so a client spamming random names cannot mint unbounded
    metric cells. With no registered set, every op is unknown. Survives
    {!reset}. *)

val record :
  ?now:int ->
  op:string ->
  outcome:outcome ->
  queue_ns:int ->
  service_ns:int ->
  unit ->
  unit
(** Account one finished (or shed) request. Sheds ([Err Overloaded])
    count toward request totals and the shed ratio but contribute no
    service/queue sample — they never reached a worker. Ops outside the
    {!set_known_ops} set land in the ["unknown"] cell. [?now]
    (monotonic ns) is for deterministic tests. *)

val incr_inflight : unit -> unit
val decr_inflight : unit -> unit
val set_queue_depth : int -> unit

val reset : unit -> unit
(** Drop all per-op cells and zero the gauges (tests; a fresh daemon in
    a long-lived process). *)

val metrics_json : ?now:int -> unit -> Telemetry.Json.t
(** [{"enabled", "inflight", "queue_depth", "ops": [{"op", "requests",
    "outcomes": {code: count}, "windows": {"1m"|"5m": {"requests",
    "service"|"queue": {count,sum_ns,mean_ns,p50_ns,p95_ns,p99_ns},
    "deadline_miss_ratio", "shed_ratio"}}}]}], ops sorted by name. *)

val prometheus : ?now:int -> unit -> string
(** Prometheus text exposition: the full [Telemetry.render_prometheus]
    registry dump followed by [statsim_op_requests_total{op,outcome}],
    [statsim_op_service_ns] / [statsim_op_queue_ns]
    {op,window,quantile} gauges, [statsim_op_deadline_miss_ratio] /
    [statsim_op_shed_ratio] {op,window} gauges, and the
    [statsim_inflight] / [statsim_queue_depth] gauges. *)

(** Structured JSON access log: one line per (sampled) request, written
    buffered and flushed on daemon drain. *)
module Access_log : sig
  type t

  val open_ : path:string -> sample:int -> t
  (** Append-mode open; [sample] keeps every [sample]-th request
      (min 1 = keep all). *)

  val record :
    t ->
    id:int option ->
    op:string ->
    outcome:outcome ->
    queue_ns:int option ->
    service_ns:int option ->
    bytes:int ->
    traced:bool ->
    unit
  (** One JSON object per line: [ts] (unix seconds), [id], [op],
      [outcome], [queue_ns], [service_ns], [bytes] (reply payload
      size), [traced] (request carried a span tree). [queue_ns] /
      [service_ns] are [None] — logged as JSON null — when the request
      was never timed: observability disabled and the request untraced,
      or shed at admission before any clock read. *)

  val flush : t -> unit
  val close : t -> unit
end

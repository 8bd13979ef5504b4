(** The [statsim serve] daemon.

    One process-wide {!Runner.Cache} (memo tier plus optional
    persistent store), one bounded-admission {!Parallel.Service} worker
    pool, one reader thread per connection. Readers parse frames and
    requests; workers run {!Ops.dispatch} and write the reply. The
    split matters: reads block in [Unix.read] (which releases the
    domain lock), so hundreds of idle connections cost threads, not
    domains, while the Domain pool stays sized to the machine.

    Robustness contract:
    - a full admission queue answers [overloaded] immediately — the
      reader sheds load, it never blocks or buffers unboundedly;
    - [deadline_ms] is checked at dequeue and, via the {!Ops.env}
      [check] hook, between pipeline stages and at every replica
      boundary — expired requests answer [deadline_exceeded];
    - a vanished client (EOF, [EPIPE]/[ECONNRESET] on reply writes —
      SIGPIPE is ignored) marks the connection dead; its in-flight
      request is cancelled at the next cooperative point and its
      queued requests are dropped without reply;
    - malformed frames or JSON get a [bad_request] reply (and, for
      framing violations, a connection close — the stream is desynced);
      no input kills the daemon;
    - {!stop} drains: admission closes, queued requests finish and
      their replies are written, then connections shut down. *)

type config = {
  socket_path : string;  (** Unix-domain listening socket *)
  tcp : (string * int) option;  (** optional extra TCP listener *)
  workers : int;  (** worker domains executing requests *)
  queue_depth : int;  (** admission-queue bound *)
  jobs : int;  (** Domain fan-out inside one request *)
  cache_dir : string option;
      (** persistent store root; [None] falls back to [REPRO_CACHE_DIR] *)
  max_frame : int;  (** request payload size bound, bytes *)
  obs : bool;
      (** enable the {!Obs} plane (per-op SLO windows, in-flight and
          queue gauges). Off, every hook in the request path is a
          single atomic flag read. *)
  access_log : string option;
      (** structured JSON access-log path (append mode); flushed and
          closed by {!stop}, i.e. on SIGTERM drain *)
  log_sample : int;  (** keep every n-th access-log line (min 1) *)
}

val default_config : socket_path:string -> config
(** No TCP listener, 2 workers, queue depth 64, [jobs = 1],
    [cache_dir = None], [max_frame = Frame.default_max_payload],
    observability off, no access log, [log_sample = 1]. *)

type t

type stats = {
  requests : int;  (** well-formed requests admitted or shed *)
  shed : int;  (** answered [overloaded] *)
  deadline_exceeded : int;
  cancelled : int;  (** dropped because the client vanished *)
  malformed : int;  (** bad frames or unparseable requests *)
  client_gone : int;  (** reply writes that found the peer dead *)
}

val start : config -> t
(** Bind the listeners, spawn the worker pool and the accept thread,
    and return. Raises [Failure] when [socket_path] is unusable (a
    live server already listens there, or the path exists and is not a
    socket); a stale socket left by a dead server is replaced. *)

val stop : t -> unit
(** Graceful drain, safe to call from a signal-driven main loop:
    stop accepting, finish and answer everything admitted, then close
    all connections and join every thread and domain. Idempotent. *)

val cache : t -> Runner.Cache.t
(** The shared hot cache (for tests and in-process clients). *)

val stats : t -> stats
(** The daemon's one count of each request outcome, kept in its own
    atomics so it is exact even when telemetry is disabled. {!Obs}
    gives the per-op view. *)

val serve : config -> unit
(** [start], then block until SIGTERM/SIGINT, then [stop]. Logs a
    listening line and a drain summary to stderr. *)

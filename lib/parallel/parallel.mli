(** A Domain-based worker pool with deterministic result placement.
    It lives in its own library so that layers below the runner (the
    synthetic-trace replication engine) can use the same pool without a
    dependency cycle.

    [map ~jobs f a] applies [f] to every element of [a] and returns the
    results in index order, whatever the execution interleaving. With
    [jobs <= 1] (or fewer than two elements) it degenerates to a plain
    sequential left-to-right map — the serial fallback. With [jobs > 1]
    it spawns [min jobs (Array.length a) - 1] additional domains, at
    most [Domain.recommended_domain_count () - 1], that pull indices
    from a shared atomic counter (work stealing by chunkless
    self-scheduling).

    If any application raises, the exception of the lowest-indexed
    failing element is re-raised (with its backtrace) after all domains
    have joined. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val default_jobs : unit -> int
(** The worker count requested via the [REPRO_JOBS] environment
    variable; 1 (serial) when unset or invalid. *)

(** A persistent worker pool with a bounded admission queue. Where
    {!map} runs one batch to completion, a [Service.t] keeps its worker
    domains alive across an open-ended job stream — the execution
    substrate for the [statsim serve] daemon. [submit] never blocks:
    when the queue is full it returns [false] and the caller decides
    what load-shedding means (the server replies [overloaded]).
    Handler exceptions are swallowed; a handler that needs to report
    failure must do so through its own channel before raising. *)
module Service : sig
  type 'a t

  val create :
    workers:int -> queue_depth:int -> handler:('a -> unit) -> 'a t
  (** Spawns [max 1 workers] domains immediately; each repeatedly pulls
      one job and runs [handler] on it. [queue_depth] (min 1) bounds
      jobs admitted but not yet picked up. *)

  val submit : 'a t -> 'a -> bool
  (** [false] when the queue is at [queue_depth] or the service is shut
      down — the job was not admitted. *)

  val pending : 'a t -> int
  (** Jobs admitted and still waiting for a worker. *)

  type stats = {
    st_queued : int;  (** admitted, not yet picked up *)
    st_running : int;  (** currently inside [handler] *)
    st_submitted : int;  (** accepted since creation *)
    st_rejected : int;  (** bounced by a full queue since creation *)
    st_completed : int;  (** handler returns (or swallowed raises) *)
  }

  val stats : 'a t -> stats
  (** Lock-free snapshot from atomic mirrors — safe to call from a
      metrics scrape without touching the queue mutex. Counts are each
      individually exact but mutually unsynchronized (monitoring
      grade). *)

  val shutdown : 'a t -> unit
  (** Graceful drain: stop admitting, let the workers finish every
      already-admitted job, then join them. Idempotent. *)
end

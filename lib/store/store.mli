(** A persistent, content-addressed artifact store.

    Expensive artifacts (statistical profiles, EDS reference results)
    are pure functions of their content key; this store makes
    profile-once / simulate-many true {e across process boundaries} by
    keeping the encoded artifact on disk, keyed by the MD5 of its full
    content key.

    On-disk layout under the root directory:

    {v
      objects/<aa>/<digest>.bin   entries ({!Codec} frames; <aa> = first
                                  two hex digits of the key digest)
      locks/<digest>.lock         advisory per-key lock files
      quarantine/<digest>.<n>.bin entries that failed verification
      tmp/                        staging for atomic publication
    v}

    Guarantees:

    - {b atomic publication}: entries are written to [tmp/] and
      [rename]d into place, so readers never observe a torn write;
    - {b single-flight}: {!get_or_compute} holds a per-key lock (an
      in-process mutex nested inside a per-key advisory file lock)
      while computing, so concurrent processes asking for the same
      missing key run the computation once and the rest read the
      published entry;
    - {b degrade to compute}: an entry that fails codec verification or
      payload decoding is moved to [quarantine/] and recomputed — a
      corrupt cache is never fatal and never silently trusted.

    Eviction is {!gc}: least-recently-used by access time (the store
    bumps an entry's atime on every verified read, so it works on
    [noatime] mounts too) down to a byte budget.

    Instance counters are mirrored into the {!Telemetry} registry as
    [store.hits], [store.misses], [store.bytes_written] and
    [store.quarantined] when collection is enabled. *)

module Codec = Codec
(** The framing layer, re-exported (the library root shadows sibling
    modules). *)

type t

val open_root : string -> t
(** Open (creating directories as needed) a store rooted at a path.
    Raises [Unix.Unix_error] if the root cannot be created. *)

val root : t -> string

(** {1 Cached computation} *)

val get_or_compute :
  t ->
  key:string ->
  encode:('a -> string) ->
  decode:(string -> ('a, string) result) ->
  (unit -> 'a) ->
  'a
(** [get_or_compute t ~key ~encode ~decode f] returns the decoded entry
    for [key] if a verified one exists, and otherwise runs [f] under the
    per-key lock (re-checking the store after acquiring it) and
    publishes [encode (f ())] atomically. Counts one hit or one miss per
    call. *)

val lookup :
  t ->
  key:string ->
  decode:(string -> ('a, string) result) ->
  ('a * Digest.t) option
(** The read {!get_or_compute} starts with, for a caller that uses the
    stored value in place of a [get_or_compute] call: a verified,
    decoded entry, with the payload's MD5 that verification checked,
    counts one hit; an absent one counts nothing, since the caller's
    fallback counts its own miss. An entry whose frame or payload fails
    is quarantined, as in [get_or_compute]. *)

(** {1 Raw access} *)

val find : t -> key:string -> string option
(** Verified payload for [key], or [None]. Quarantines a corrupt entry.
    Does not touch the hit/miss counters. *)

val put : t -> key:string -> string -> unit
(** Frame and atomically publish a payload, replacing any entry. *)

(** {1 Counters and maintenance} *)

type stats = {
  hits : int;  (** [get_or_compute] calls answered from disk *)
  misses : int;  (** [get_or_compute] calls that ran their thunk *)
  bytes_written : int;  (** framed bytes published by this instance *)
  quarantined : int;  (** entries moved aside after failing verification *)
}

val stats : t -> stats
(** Process-local counters for this instance. *)

type disk_stats = {
  entries : int;
  total_bytes : int;  (** framed bytes of all entries *)
  quarantine_entries : int;
}

val disk_stats : t -> disk_stats
(** Scan the store directory (shared state, not instance counters). *)

val gc : t -> max_bytes:int -> int * int
(** [gc t ~max_bytes] evicts entries, least recently accessed first,
    until the total is within the byte budget; also empties
    [quarantine/]. Returns [(evicted_entries, freed_bytes)] counting
    entries only. *)

val clear : t -> unit
(** Remove every entry, quarantined file, lock file and staging file. *)

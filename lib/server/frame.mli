(** The wire framing of the [statsim serve] protocol.

    One frame is one request or one reply. The layout follows the
    {!Store.Codec} discipline — magic, version byte, length prefix,
    payload digest — so a stream desync, a version skew or a corrupted
    payload is detected before any JSON parsing happens:

    {v
    offset size  field
    0      4     magic "SFRM"
    4      1     format version (1)
    5      4     payload length, unsigned 32-bit big-endian
    9      16    MD5 digest of the payload
    25     n     payload (a JSON document, by convention)
    v}

    Oversize declarations are rejected against [max_payload] {e before}
    allocating the payload buffer, so a hostile length prefix cannot
    balloon the daemon's heap. *)

val header_len : int
(** 25 bytes. *)

val default_max_payload : int
(** 8 MiB. *)

val encode : string -> string
(** The full frame for a payload. Raises [Invalid_argument] on payloads
    that cannot be length-prefixed (>= 2^31 bytes). *)

val decode : ?max_payload:int -> string -> (string, string) result
(** Parse one complete frame from a string; [Error] names the first
    violated invariant (short header, bad magic, unsupported version,
    oversize or mismatched length, digest mismatch). Exact round-trip:
    [decode (encode p) = Ok p]. *)

type read_error =
  | Closed  (** clean EOF on a frame boundary, or the peer vanished *)
  | Corrupt of string  (** protocol violation; the stream is unusable *)

val read : ?max_payload:int -> Unix.file_descr -> (string, read_error) result
(** Read one frame's payload from a blocking fd. [EINTR] is retried;
    [ECONNRESET]/[EPIPE]/[EBADF] report [Closed] (client gone); EOF
    mid-frame reports [Corrupt "truncated ..."]. *)

val write : Unix.file_descr -> string -> (unit, string) result
(** Write a whole pre-encoded frame. [EINTR] is retried; any other
    error (notably [EPIPE]/[ECONNRESET] once the peer is gone) returns
    [Error] rather than raising — with SIGPIPE ignored this is the
    daemon's client-disconnect signal. *)

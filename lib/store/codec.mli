(** Binary framing for on-disk artifacts.

    Every store entry is one self-describing record:

    {v
      magic   6 bytes   "SSTORE"
      version u16 BE    codec format version (1)
      keylen  u32 BE
      key     keylen bytes   the full content key, verbatim
      digest  16 bytes  MD5 of the payload bytes
      paylen  u64 BE
      payload paylen bytes
    v}

    [decode] verifies all of it — magic, version, that the embedded key
    equals the key the caller asked for (a digest-named file that holds a
    different key is a hash collision or a misplaced file), the payload
    length, the payload digest, and that nothing trails the record — so
    a truncated write, a flipped bit or a foreign file is reported as
    [Error] rather than returned as data. *)

val encode : key:string -> string -> string
(** [encode ~key payload] frames a payload. *)

val decode : key:string -> string -> (string * Digest.t, string) result
(** [decode ~key bytes] returns the verified payload with its MD5, the
    one just checked against the frame's (a caller that keys by the
    payload's digest need not hash it again), or [Error reason] when
    the frame is damaged or belongs to a different key/version. *)

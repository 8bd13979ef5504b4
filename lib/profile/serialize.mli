(** Persistent statistical profiles.

    Profiling is the expensive step of the methodology (it walks the
    whole reference execution); a design-space exploration wants to pay
    it once and reload the profile later. The format is a versioned,
    line-oriented text format: stable across runs (profiles are
    deterministic), diff-able, and independent of OCaml's marshalling.
    It is written and read in one pass each through {!Text}, the line
    codec {!Kernel.Plan} shares: the persistent store decodes a profile
    on every warm call, and the decoder is where bytes from disk first
    meet the program, so it fails with [Failure] only.

    A profile names the machine it was collected on, because locality
    characteristics are only valid for that cache/predictor
    configuration (paper Section 4.4). Its third line is [machine]
    followed by that machine's {!Config.Machine.canonical} rendering,
    one token, which the decoder keeps as read and never parses: the
    rendering whose MD5 keys the profile in the store, not a second
    encoding of the record. This is version 2 of the format; version 1
    carried a [config] line of 45 integers instead and is rejected as
    an unsupported version. *)

val to_string : Stat_profile.t -> string
(** The same format, rendered in memory. The rendering is canonical
    (nodes sorted by key, edges by successor, histogram support in
    ascending order), so equal profiles produce identical bytes and
    [to_string (of_string s) = s] for any saved profile [s] — which is
    why a store may key derived artifacts by the digest of the bytes it
    read instead of re-encoding the decoded profile. Timed under the
    [profile.encode] telemetry span. *)

val of_string : string -> Stat_profile.t
(** Parses in place, one pass over the string. Fields other than the
    machine token are integers in [int_of_string] syntax separated by
    runs of spaces; blank lines between records are skipped. Raises
    [Failure] with a line-numbered diagnostic, and nothing else, on
    malformed input: an unsupported version, a missing machine line, a
    [k] outside [\[0, Sfg.max_k\]], an unknown instruction class, a
    negative count, an operand count above [Sfg.max_deps - 2]
    (checked before the array is made, so allocation stays
    proportional to the input), a dependency, WAW or WAR distance
    outside [\[0, Sfg.dep_cap\]], or a graph whose occurrences times
    slots, summed over its nodes, exceed the instruction count by more
    than two of its largest blocks (the blocks a stream or chunk
    boundary may cut short). So a profile that decodes compiles,
    generates and simulates without raising. Timed under the
    [profile.decode] telemetry span. *)

val instructions : string -> int
(** The instruction count on an encoded profile's meta line, read
    without decoding anything past it: with the MD5 of the bytes, all a
    plan key needs. Raises [Failure] as {!of_string} does on a
    malformed header or meta line. Not timed under [profile.decode]. *)

val save_file : Stat_profile.t -> string -> unit
(** Writes via a temp file in the destination directory followed by an
    atomic rename: a crash mid-write never leaves a truncated profile
    at [path]. *)

val load_file : string -> Stat_profile.t

val version : int
(** Current format version. *)

(** The decimal line codec this format and {!Kernel.Plan}'s are written
    and read with: lines of a tag followed by space-separated integers.
    Writing formats each integer straight into the buffer; reading walks
    the input in place, allocating nothing per line or per token unless
    a token needs [int_of_string]'s full syntax. *)
module Text : sig
  val add_field : Buffer.t -> int -> unit
  (** Appends a space and the integer, the bytes of [Printf "%d"]. *)

  type cursor

  val cursor : string -> cursor

  val next_line : cursor -> bool
  (** Moves to the next line of [String.split_on_char '\n' s];
      [false] past the last one. *)

  val line : cursor -> int
  (** 1-based number of the current line (or of the missing one, after
      {!next_line} returned [false]). *)

  val token : cursor -> bool
  (** Moves past the current line's next space-delimited token; [false]
      at the end of the line. *)

  val token_is : cursor -> string -> bool
  (** Whether the last token is exactly this string. *)

  exception Not_int

  val token_int : cursor -> int
  (** The last token read as [int_of_string] reads it; raises {!Not_int}
      when [int_of_string] would fail. *)

  val rest : cursor -> string
  (** A copy of the current line from the read position on. *)

  val max_tokens : cursor -> int
  (** An upper bound on the tokens left on the current line, in O(1):
      what a decoder bounds a length field by before allocating. *)
end

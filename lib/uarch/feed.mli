(** The words the pipeline core reads from its instruction source, and
    the rewind window of the execution-driven feed.

    Both simulators of the paper run on one compiled core,
    {!Pipeline.run} (DESIGN.md Section 5):

    - the trace feed ({!Trace_feed}) answers from a statistically
      generated trace whose locality outcomes were pre-assigned during
      generation; the core reads it inline;
    - the execution-driven feed ({!Eds_feed}) answers from a real
      dynamic instruction stream, real caches and a real branch
      predictor; the core calls it directly.

    The protocol is positional and allocates nothing per instruction.
    Positions are absolute stream indices; the pipeline asks for the
    instruction at a position as one int (a {e feed word}) and for its
    producers one at a time, and the memory calls answer with a
    {!Cache.Hierarchy} access word. After a misprediction squash the
    pipeline re-fetches positions it has already seen (the wrong-path
    instructions re-played as correct path, exactly as in Section 2.3).
    The trace feed indexes its whole trace; the execution-driven feed
    pulls from a generator and keeps recent positions in slots a
    {!Ring} assigns, a window deep enough for every rewind. *)

(** {1 Feed words}

    [bits 0-3] the instruction class ({!Isa.Iclass.index}), [bit 4] a
    branch outcome is present, [bit 5] taken, [bit 6] mispredicted,
    [bit 7] fetch redirection, [bits 8+] the number of RAW producers. A
    branch with both bits 6 and 7 set is mispredicted: the pipeline
    reads the redirect bit only when the mispredict bit is clear. *)

val end_of_stream : int
(** What a feed's [fetch] answers past the last position; every word is
    non-negative. *)

val word : klass:int -> branch:int -> producers:int -> int
(** [klass] is a class index, [branch] the bits from {!branch_bits} or
    [0] for an instruction without a branch outcome. *)

val branch_bits : taken:bool -> mispredict:bool -> redirect:bool -> int

val klass : int -> int
(** The class index. *)

val is_branch : int -> bool
val taken : int -> bool
val mispredicted : int -> bool

val redirected : int -> bool
(** The redirect bit. *)

val producers : int -> int

val rewind_window : Config.Machine.t -> int
(** A ring window deep enough for every rewind on this machine: more
    than the front end can run ahead of commit (RUU, fetch queue and
    one fetch burst), rounded up to a power of two. *)

(** Memoizing sliding window over a positional producer. The ring holds
    no elements: it assigns each position a slot, and the feed keeps
    what it knows about the position in its own arrays at that slot. *)
module Ring : sig
  type t

  val create : window:int -> (int -> bool) -> t
  (** [create ~window produce] pulls on demand and keeps the last
      {!window} positions readable, where {!window} is [window] rounded
      up to a power of two. [produce s] writes the next position into
      slot [s] of the feed's storage, or answers [false] at the end of
      the stream; past the first lap it takes over the slot of a
      position that slid out of the window. *)

  val window : t -> int
  (** How many slots the feed's storage needs. *)

  val mem : t -> int -> bool
  (** [mem r i] pulls until position [i] exists or the producer ends;
      [false] past the end. Raises [Invalid_argument] on a negative
      index, as {!index} does. *)

  val index : t -> int -> int
  (** The slot position [i] occupies, in [\[0, window)]. Raises
      [Invalid_argument] on a negative index, an index past the end and
      an index older than the window. *)
end

(** The interface between the pipeline core and its instruction source.

    Both simulators of the paper are instances of one pipeline over
    different feeds (DESIGN.md Section 5):

    - the execution-driven feed answers from a real dynamic instruction
      stream, real caches and a real branch predictor;
    - the synthetic feed answers from a statistically generated trace
      whose locality outcomes were pre-assigned during generation.

    The protocol is positional and allocates nothing per instruction.
    Positions are absolute stream indices; the pipeline asks for the
    instruction at a position as one int (a {e feed word}) and for its
    producers one at a time, and the memory calls answer with a
    {!Cache.Hierarchy} access word. After a misprediction squash the
    pipeline re-fetches positions it has already seen (the wrong-path
    instructions re-played as correct path, exactly as in Section 2.3).
    The synthetic feed indexes its whole trace; the execution-driven
    feed pulls from a generator and keeps recent positions in slots a
    {!Ring} assigns, a window deep enough for every rewind. *)

(** {1 Feed words}

    [bits 0-3] the instruction class ({!Isa.Iclass.index}), [bit 4] a
    branch outcome is present, [bit 5] taken, [bit 6] mispredicted,
    [bit 7] fetch redirection, [bits 8+] the number of RAW producers. A
    branch with both bits 6 and 7 set is mispredicted: the pipeline
    reads the redirect bit only when the mispredict bit is clear. *)

val end_of_stream : int
(** What {!S.fetch} answers past the last position; every word is
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

module type S = sig
  type t

  val fetch : t -> int -> int
  (** The feed word of the instruction at a position, or
      {!end_of_stream}. Must be consistent across repeated calls for the
      same position. *)

  val producer : t -> int -> int -> int
  (** [producer t pos j] is the stream position of RAW producer [j] of
      the instruction at [pos], for [j] below its producer count; a
      negative value is no producer, and positions already committed
      resolve as ready. Only positions the pipeline has fetched are
      asked. *)

  val ifetch_access : t -> int -> wrong_path:bool -> int
  (** Instruction-memory behaviour when the instruction at a position is
      fetched, as a {!Cache.Hierarchy} access word. *)

  val load_access : t -> int -> wrong_path:bool -> int
  (** Data-memory behaviour when a load issues. *)

  val on_commit_store : t -> int -> int
  (** A store leaves the LSQ at commit and performs its memory write. *)

  val on_dispatch : t -> int -> wrong_path:bool -> unit
  (** Called when an instruction enters the RUU — the point of the
      paper's speculative branch-predictor update. *)
end

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

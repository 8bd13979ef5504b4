(** The interface between the pipeline core and its instruction source.

    Both simulators of the paper are instances of one pipeline over
    different feeds (DESIGN.md Section 5):

    - the execution-driven feed answers from a real dynamic instruction
      stream, real caches and a real branch predictor;
    - the synthetic feed answers from a statistically generated trace
      whose locality outcomes were pre-assigned during generation.

    Positions are absolute stream indices. After a misprediction squash
    the pipeline re-fetches positions it has already seen (the wrong-path
    instructions re-played as correct path, exactly as in Section 2.3),
    so feeds keep recent positions in a {!Ring}: the one rewind window,
    pulled from a generator or wrapped around an already-built array. *)

type branch_summary = {
  taken : bool;
  resolution : Branch.Predictor.resolution;
}

type fetched = {
  seq : int;  (** absolute stream position *)
  pc : int;
  klass : Isa.Iclass.t;
  mem_addr : int;  (* effective address for EDS memory ops; -1 otherwise *)
  producers : int array;
      (** stream positions of RAW producers; positions already committed
          resolve as ready *)
  branch : branch_summary option;
}

module type S = sig
  type t

  val fetch : t -> int -> fetched option
  (** Instruction at a position; [None] at end of stream. Must be
      consistent across repeated calls for the same position. *)

  val ifetch_access : t -> fetched -> wrong_path:bool -> Cache.Hierarchy.outcome * int
  (** Instruction-memory behaviour when this instruction is fetched. *)

  val load_access : t -> fetched -> wrong_path:bool -> Cache.Hierarchy.outcome * int
  (** Data-memory behaviour when a load issues. *)

  val on_commit_store : t -> fetched -> Cache.Hierarchy.outcome
  (** A store leaves the LSQ at commit and performs its memory write. *)

  val on_dispatch : t -> fetched -> wrong_path:bool -> unit
  (** Called when an instruction enters the RUU — the point of the
      paper's speculative branch-predictor update. *)
end

val rewind_window : Config.Machine.t -> int
(** A ring window deep enough for every rewind on this machine: at least
    16384, and always more than the front end can run ahead of commit
    (RUU, fetch queue and one fetch burst). *)

(** Memoizing sliding window over a positional producer, for feeds.
    Elements are stored as they are, with no option per element. *)
module Ring : sig
  type 'a t

  val create : window:int -> (int -> 'a option) -> 'a t
  (** [create ~window produce] pulls from [produce] on demand and keeps
      the last [window] items for re-reads. [produce s] is told the
      {!slot} [s] its item will take, so a feed that keeps state per
      slot can reset it for the new occupant. *)

  val of_array : 'a array -> 'a t
  (** A ring that already holds every position: the window is the
      array's length and nothing is pulled. The array is not copied and
      reads never write, so one array may back rings in several
      domains at once. *)

  val mem : 'a t -> int -> bool
  (** [mem r i] pulls until position [i] exists or the producer ends;
      [false] past the end. Raises [Invalid_argument] on a negative
      index, as {!get} does. *)

  val get : 'a t -> int -> 'a
  (** Raises [Invalid_argument] on a negative index, an index past the
      end and an index older than the window. *)

  val slot : 'a t -> int -> int
  (** The buffer index position [i] occupies, in [[0, window)]: state a
      feed keeps per position beside the ring is indexed by it. A
      position below the window is its own slot, so reading it never
      divides. *)
end

(** Translation lookaside buffer: a set-associative tag store over page
    numbers, with a fixed miss (walk) penalty. *)

type t

val create : Config.Machine.tlb -> t

val access : t -> int -> bool
(** [access t addr] probes and fills by page; [true] on hit. *)

val miss_penalty : t -> int

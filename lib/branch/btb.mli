(** Branch target buffer: a set-associative LRU store mapping branch PC
    to its last taken target. A BTB miss on a taken direct branch causes
    a fetch redirection; on an indirect branch it is a full
    misprediction (paper, Section 2.1.2). *)

type t

val create : sets:int -> assoc:int -> t

val predicts : t -> pc:int -> target:int -> bool
(** Whether the PC hits and its stored target is [target]. A hit
    refreshes the entry's LRU stamp, right target or not. PCs are
    non-negative. *)

val update : t -> pc:int -> target:int -> unit
(** Record the resolved target of a taken branch. *)

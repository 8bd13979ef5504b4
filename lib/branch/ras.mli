(** Return address stack: a circular stack pushed by calls and popped by
    returns at fetch time. Overflows wrap (oldest entries are lost), as
    in hardware. *)

type t

val create : entries:int -> t
val push : t -> int -> unit

val pop : t -> int option
(** [None] when empty. *)

val copy : t -> t

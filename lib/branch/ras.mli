(** Return address stack: a circular stack pushed by calls and popped by
    returns at fetch time. Overflows wrap (oldest entries are lost), as
    in hardware. *)

type t

val create : entries:int -> t
val push : t -> int -> unit

val pop_matches : t -> int -> bool
(** [pop_matches t addr] pops the top entry and answers whether it is
    [addr]; on an empty stack it pops nothing and answers [false]. *)

val copy : t -> t

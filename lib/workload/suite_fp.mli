(** Floating-point companions to the SPECint stand-ins (repository
    addition — the paper evaluates CINT2000 only, but the methodology
    claims generality; these CFP2000-flavoured workloads exercise the
    floating-point classes, long predictable loop nests and streaming
    memory that integer codes lack). *)


val all : Spec.t list
val find : string -> Spec.t

val program : Spec.t -> Program.t

val stream :
  ?seed_offset:int -> Spec.t -> length:int -> unit -> Isa.Dyn_inst.t option

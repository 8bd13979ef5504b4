(** The ten SPEC CINT2000 stand-ins of Table 1.

    Each named spec is tuned so its profile-visible characteristics are
    *qualitatively* positioned like the corresponding SPEC benchmark in
    the paper: code size ordering follows Table 3 (gcc largest, vpr
    smallest), branch MPKI spread follows Figure 3 (twolf/parser hard,
    vortex/bzip2 easy; eon/perlbmk dominated by pattern/loop branches
    whose apparent predictability differs most between immediate and
    delayed predictor update), and the IPC spread follows Table 1. *)

val names : string list
(** In the paper's order: bzip2 crafty eon gcc gzip parser perlbmk twolf
    vortex vpr. *)

val all : Spec.t list

val find : string -> Spec.t
(** Raises [Not_found] for an unknown name. *)

val program : Spec.t -> Program.t

val stream :
  ?seed_offset:int ->
  ?program:Program.t ->
  Spec.t ->
  length:int ->
  unit ->
  Isa.Dyn_inst.t option
(** Fresh dynamic-stream generator of [length] instructions.
    [seed_offset] shifts the data-behaviour seed, e.g. to model a
    different program phase or input. [program] is the spec's
    {!program}, for a caller that streams one workload more than once:
    the stream only reads it, so one program serves every stream, and
    the stream equals the one that builds its own. *)

val stream_key : ?seed_offset:int -> string -> length:int -> string
(** The cache key ["int:<name>:o<seed_offset>:n<length>"] of
    [stream ?seed_offset (find name) ~length]. Persistent stores key
    their entries by it, so the format must not change. *)

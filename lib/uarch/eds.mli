(** Convenience runner for execution-driven simulation — the repository's
    sim-outorder equivalent and the reference every experiment compares
    against. *)

val run :
  ?max_instructions:int ->
  ?commit_hook:(committed:int -> cycle:int -> unit) ->
  ?perfect_caches:bool ->
  ?perfect_bpred:bool ->
  Config.Machine.t ->
  (unit -> Isa.Dyn_inst.t option) ->
  Metrics.t

(** A declarative experiment: what to simulate, separated from how it is
    scheduled and rendered.

    [jobs] declares the independent simulation units (workload x config
    x method x seed); [exec] runs one unit, drawing shared EDS
    references and statistical profiles from the {!Cache}; [reduce] is a
    pure function from the job set and its results (in declaration
    order) to a typed {!Report.t}. The runner may execute [exec] calls
    in any order and in parallel domains; determinism comes from the
    index-ordered result array handed to [reduce]. *)

type t =
  | Pack : {
      jobs : unit -> 'job array;
      exec : Cache.t -> 'job -> 'res;
      reduce : 'job array -> 'res array -> Report.t;
    }
      -> t

val make :
  jobs:(unit -> 'job array) ->
  exec:(Cache.t -> 'job -> 'res) ->
  reduce:('job array -> 'res array -> Report.t) ->
  t

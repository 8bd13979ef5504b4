type t =
  | Pack : {
      jobs : unit -> 'job array;
      exec : Cache.t -> 'job -> 'res;
      reduce : 'job array -> 'res array -> Report.t;
    }
      -> t

let make ~jobs ~exec ~reduce = Pack { jobs; exec; reduce }

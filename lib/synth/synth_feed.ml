type t = { trace : Trace.t; charges : Trace_feed.charges }

let create ?wrong_path_locality cfg trace =
  {
    trace;
    charges =
      Trace_feed.charges ?wrong_path_locality cfg (max 1 (Trace.length trace));
  }

let fetch t i =
  if i >= Trace.length t.trace then None
  else Some (Trace_feed.fetched i t.trace.insts.(i))

(* a materialized trace charges each position's own slot *)
let ifetch_access t (f : Uarch.Feed.fetched) ~wrong_path =
  Trace_feed.ifetch_access t.charges t.trace.insts.(f.seq) ~slot:f.seq
    ~wrong_path

let load_access t (f : Uarch.Feed.fetched) ~wrong_path =
  Trace_feed.load_access t.charges t.trace.insts.(f.seq) ~slot:f.seq
    ~wrong_path

let on_commit_store _ _ = Cache.Hierarchy.hit
let on_dispatch _ _ ~wrong_path:_ = ()

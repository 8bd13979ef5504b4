type t = {
  window : int;
  ring : Trace.inst Uarch.Feed.Ring.t;
  charges : Trace_feed.charges;  (* per window slot *)
}

let default_window = 16384

let create ?wrong_path_locality ?(window = default_window) cfg produce =
  (* the pipeline revisits positions only while they can still be in
     flight (squash rewinds to just past the resolving branch), so the
     window must cover the deepest possible rewind: everything the
     front end may have run ahead — bounded by the RUU, the fetch
     queue and one fetch burst *)
  let window =
    max window
      (cfg.Config.Machine.ruu_size + cfg.ifq_size
      + (cfg.decode_width * cfg.fetch_speed) + 64)
  in
  let charges = Trace_feed.charges ?wrong_path_locality cfg window in
  let produced = ref 0 in
  let produce () =
    match produce () with
    | None -> None
    | Some _ as some ->
      (* this instruction recycles a window slot: clear the slot's
         charge bits so the new occupant pays its own misses *)
      Trace_feed.clear charges (!produced mod window);
      incr produced;
      some
  in
  { window; ring = Uarch.Feed.Ring.create ~window produce; charges }

let of_stream ?wrong_path_locality ?window cfg s =
  create ?wrong_path_locality ?window cfg (fun () -> Generate.next s)

let inst t seq =
  match Uarch.Feed.Ring.get t.ring seq with
  | Some s -> s
  | None -> invalid_arg "Stream_feed: access past the end of the stream"

let fetch t i = Option.map (Trace_feed.fetched i) (Uarch.Feed.Ring.get t.ring i)

(* a stream charges the window slot the position occupies *)
let ifetch_access t (f : Uarch.Feed.fetched) ~wrong_path =
  Trace_feed.ifetch_access t.charges (inst t f.seq) ~slot:(f.seq mod t.window)
    ~wrong_path

let load_access t (f : Uarch.Feed.fetched) ~wrong_path =
  Trace_feed.load_access t.charges (inst t f.seq) ~slot:(f.seq mod t.window)
    ~wrong_path

let on_commit_store _ _ = Cache.Hierarchy.hit
let on_dispatch _ _ ~wrong_path:_ = ()

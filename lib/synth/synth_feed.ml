module Ring = Uarch.Feed.Ring

type t = {
  wrong_path_locality : bool;
  ring : Ring.t;
  trace : Trace.t;  (* the whole trace, or the window's slots *)
  (* per ring slot, whether the position in it has paid its
     pre-assigned miss flags: bit 0 for the fetch, bit 1 for the load *)
  paid : Bytes.t;
  (* access words per outcome bits, from Cache.Hierarchy *)
  ifetch : int array;
  load : int array;
}

let make ?(wrong_path_locality = false) cfg ~paid ring trace =
  let access instruction =
    Array.init 8 (Cache.Hierarchy.access_of_outcome cfg ~instruction)
  in
  {
    wrong_path_locality;
    ring;
    trace;
    paid;
    ifetch = access true;
    load = access false;
  }

let unpaid n = Bytes.make n '\000'

let of_trace ?wrong_path_locality cfg (trace : Trace.t) =
  let n = Trace.length trace in
  make ?wrong_path_locality cfg ~paid:(unpaid n) (Ring.full n) trace

let of_stream ?wrong_path_locality cfg s =
  (* a power of two, so the ring's window is the buffer's length *)
  let window = Uarch.Feed.rewind_window cfg in
  let buf = Trace.create window and paid = unpaid window in
  let produce slot =
    Generate.next s buf slot
    && begin
         (* past the first lap the new position takes over the slot of
            one that slid out of the window, and pays its own misses *)
         Bytes.unsafe_set paid slot '\000';
         true
       end
  in
  make ?wrong_path_locality cfg ~paid (Ring.create ~window produce) buf

let fetch t i =
  if Ring.mem t.ring i then
    Trace.feed_word (Array.unsafe_get t.trace.code (Ring.index t.ring i))
  else Uarch.Feed.end_of_stream

let producer t i j =
  let d = Trace.dep (Array.unsafe_get t.trace.deps (Ring.index t.ring i)) j in
  if d > 0 then i - d else -1

(* A correct-path access pays the position's flags the first time and
   hits afterwards (a re-fetch after a squash). A wrong-path access
   hits, or with [wrong_path_locality] pays the flags without using up
   the correct-path charge. *)
let[@inline] charge t ~bit ~wrong_path access outcome slot =
  if wrong_path && t.wrong_path_locality then Array.unsafe_get access outcome
  else begin
    let paid = Char.code (Bytes.unsafe_get t.paid slot) in
    if wrong_path || paid land bit <> 0 then Array.unsafe_get access 0
    else begin
      Bytes.unsafe_set t.paid slot (Char.unsafe_chr (paid lor bit));
      Array.unsafe_get access outcome
    end
  end

let ifetch_access t i ~wrong_path =
  let slot = Ring.index t.ring i in
  charge t ~bit:1 ~wrong_path t.ifetch
    (Trace.fetch_outcome (Array.unsafe_get t.trace.code slot))
    slot

let load_access t i ~wrong_path =
  let slot = Ring.index t.ring i in
  charge t ~bit:2 ~wrong_path t.load
    (Trace.load_outcome (Array.unsafe_get t.trace.code slot))
    slot

let on_commit_store t _ = Array.unsafe_get t.load 0
let on_dispatch _ _ ~wrong_path:_ = ()

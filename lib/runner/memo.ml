type 'v state = Pending | Ready of 'v | Failed of exn

type 'v entry = { mutable state : 'v state }

type 'v t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  (* mirrored into the telemetry registry when the table is named;
     interning means every table with the same name shares one pair *)
  tel_hits : Telemetry.counter option;
  tel_misses : Telemetry.counter option;
}

let create ?name () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    tel_hits = Option.map (fun n -> Telemetry.counter (n ^ ".hits")) name;
    tel_misses = Option.map (fun n -> Telemetry.counter (n ^ ".misses")) name;
  }

let publish t key entry state =
  Mutex.lock t.mutex;
  entry.state <- state;
  (* a failed computation wakes its waiters (who re-raise) and clears
     the slot so a later get can retry *)
  (match state with Failed _ -> Hashtbl.remove t.tbl key | _ -> ());
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let get t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.tbl key with
  | Some entry ->
    t.hits <- t.hits + 1;
    Option.iter Telemetry.incr t.tel_hits;
    let rec wait () =
      match entry.state with
      | Ready v ->
        Mutex.unlock t.mutex;
        v
      | Failed exn ->
        Mutex.unlock t.mutex;
        raise exn
      | Pending ->
        Condition.wait t.cond t.mutex;
        wait ()
    in
    wait ()
  | None ->
    let entry = { state = Pending } in
    Hashtbl.add t.tbl key entry;
    t.misses <- t.misses + 1;
    Option.iter Telemetry.incr t.tel_misses;
    Mutex.unlock t.mutex;
    (match f () with
    | v ->
      publish t key entry (Ready v);
      v
    | exception exn ->
      publish t key entry (Failed exn);
      raise exn)

let mem t ~key = Mutex.protect t.mutex (fun () -> Hashtbl.mem t.tbl key)

let hits t =
  Mutex.lock t.mutex;
  let h = t.hits in
  Mutex.unlock t.mutex;
  h

let misses t =
  Mutex.lock t.mutex;
  let m = t.misses in
  Mutex.unlock t.mutex;
  m

let size t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mutex;
  n

let map_serial f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- f a.(i)
    done;
    out
  end

let map ~jobs f a =
  let n = Array.length a in
  if jobs <= 1 || n <= 1 then map_serial f a
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try Ok (f a.(i))
            with exn -> Error (exn, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    (* past the hardware's domains more workers only contend, and
       [Domain.spawn] fails past the runtime's limit *)
    let extra = min (min jobs n) (Domain.recommended_domain_count ()) - 1 in
    let domains = Array.init extra (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
        | None -> assert false)
      results
  end

module Service = struct
  (* A persistent pool: unlike [map], the workers outlive any one batch
     of jobs, pulling from a bounded queue until [shutdown]. Rejection
     (a full queue) is the caller's backpressure signal. *)

  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    queue : 'a Queue.t;
    depth : int;
    mutable closed : bool;
    mutable domains : unit Domain.t list;
    (* lock-free mirrors, readable without the mutex (observability) *)
    queued : int Atomic.t;
    running : int Atomic.t;
    submitted : int Atomic.t;
    rejected : int Atomic.t;
    completed : int Atomic.t;
  }

  type stats = {
    st_queued : int;
    st_running : int;
    st_submitted : int;
    st_rejected : int;
    st_completed : int;
  }

  let create ~workers ~queue_depth ~handler =
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        depth = max 1 queue_depth;
        closed = false;
        domains = [];
        queued = Atomic.make 0;
        running = Atomic.make 0;
        submitted = Atomic.make 0;
        rejected = Atomic.make 0;
        completed = Atomic.make 0;
      }
    in
    let worker () =
      let rec loop () =
        Mutex.lock t.mutex;
        let rec next () =
          if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
          else if t.closed then None
          else begin
            Condition.wait t.nonempty t.mutex;
            next ()
          end
        in
        let job = next () in
        Mutex.unlock t.mutex;
        match job with
        | None -> ()
        | Some job ->
          ignore (Atomic.fetch_and_add t.queued (-1));
          ignore (Atomic.fetch_and_add t.running 1);
          (try handler job with _ -> ());
          ignore (Atomic.fetch_and_add t.running (-1));
          ignore (Atomic.fetch_and_add t.completed 1);
          loop ()
      in
      loop ()
    in
    t.domains <- List.init (max 1 workers) (fun _ -> Domain.spawn worker);
    t

  let submit t job =
    Mutex.lock t.mutex;
    let accepted = (not t.closed) && Queue.length t.queue < t.depth in
    if accepted then begin
      Queue.push job t.queue;
      ignore (Atomic.fetch_and_add t.queued 1);
      ignore (Atomic.fetch_and_add t.submitted 1);
      Condition.signal t.nonempty
    end
    else ignore (Atomic.fetch_and_add t.rejected 1);
    Mutex.unlock t.mutex;
    accepted

  let pending t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  let stats t =
    {
      st_queued = Atomic.get t.queued;
      st_running = Atomic.get t.running;
      st_submitted = Atomic.get t.submitted;
      st_rejected = Atomic.get t.rejected;
      st_completed = Atomic.get t.completed;
    }

  let shutdown t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end

let default_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      prerr_endline "warning: ignoring invalid REPRO_JOBS";
      1)

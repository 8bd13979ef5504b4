type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  queue_depth : int;
  jobs : int;
  cache_dir : string option;
  max_frame : int;
  obs : bool;
  access_log : string option;
  log_sample : int;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp = None;
    workers = 2;
    queue_depth = 64;
    jobs = 1;
    cache_dir = None;
    max_frame = Frame.default_max_payload;
    (* off by default: embedders (tests, the bench harness) opt in; the
       CLI serve subcommand turns it on *)
    obs = false;
    access_log = None;
    log_sample = 1;
  }

module Json = Telemetry.Json

(* --- telemetry spans: timings only; [stats] holds the exact counts --- *)

let span_request = Telemetry.span "server.request"
let span_reply_write = Telemetry.span "server.reply_write"

(* A connection is shared by its reader thread and any number of queued
   jobs; the fd closes only when the last holder releases it, so a
   worker never writes into a recycled descriptor number. [wmutex]
   serializes reply frames (replies are written in completion order,
   ids correlate them). *)
type conn = {
  fd : Unix.file_descr;
  alive : bool Atomic.t;
  wmutex : Mutex.t;
  refs : int Atomic.t;
}

type job = {
  conn : conn;
  req : Protocol.request;
  deadline : float option;  (** absolute, Unix.gettimeofday clock *)
  trace : Telemetry.Trace.t option;
      (** created at frame decode for ["trace": true] requests *)
  enqueued_ns : int;  (** monotonic enqueue time; 0 when untimed *)
}

type stats = {
  requests : int;
  shed : int;
  deadline_exceeded : int;
  cancelled : int;
  malformed : int;
  client_gone : int;
}

type t = {
  cfg : config;
  cache : Runner.Cache.t;
  listeners : Unix.file_descr list;
  mutable service : job Parallel.Service.t option;
  stop_flag : bool Atomic.t;
  mutable acceptor : Thread.t option;
  conns_mutex : Mutex.t;
  mutable conns : (conn * Thread.t) list;
  s_requests : int Atomic.t;
  s_shed : int Atomic.t;
  s_deadline : int Atomic.t;
  s_cancelled : int Atomic.t;
  s_malformed : int Atomic.t;
  s_client_gone : int Atomic.t;
  alog : Obs.Access_log.t option;
}

let cache t = t.cache

let stats t =
  {
    requests = Atomic.get t.s_requests;
    shed = Atomic.get t.s_shed;
    deadline_exceeded = Atomic.get t.s_deadline;
    cancelled = Atomic.get t.s_cancelled;
    malformed = Atomic.get t.s_malformed;
    client_gone = Atomic.get t.s_client_gone;
  }

let retain conn = Atomic.incr conn.refs

let release conn =
  if Atomic.fetch_and_add conn.refs (-1) = 1 then
    try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send_reply t conn payload =
  if Atomic.get conn.alive then begin
    Mutex.lock conn.wmutex;
    let r =
      Telemetry.time span_reply_write (fun () ->
          Frame.write conn.fd (Frame.encode payload))
    in
    Mutex.unlock conn.wmutex;
    match r with
    | Ok () -> ()
    | Error _ ->
      (* EPIPE/ECONNRESET with SIGPIPE ignored: the client is gone.
         Poison the connection so queued work for it is dropped. *)
      Atomic.set conn.alive false;
      Atomic.incr t.s_client_gone
  end

(* --- request execution (worker domain) --- *)

(* Account one finished (or dropped) request on every exit path:
   optional reply, per-op SLO windows, access-log line. With the obs
   plane disabled and the request untraced, the timing reads collapse
   to zero-cost branches. *)
let account t job ~outcome ~queue_ns ~dequeue_ns ~timed payload =
  let service_ns =
    if timed && dequeue_ns > 0 then max 0 (Telemetry.now_ns () - dequeue_ns)
    else 0
  in
  (* account before replying: a client that has its reply in hand must
     see its request already counted by an immediate metrics scrape *)
  if Obs.enabled () then
    Obs.record ~op:job.req.Protocol.op ~outcome ~queue_ns ~service_ns ();
  (match t.alog with
  | Some log ->
    (* untimed requests log null timings, not fake zeroes *)
    let opt v = if timed then Some v else None in
    Obs.Access_log.record log ~id:job.req.Protocol.id
      ~op:job.req.Protocol.op ~outcome ~queue_ns:(opt queue_ns)
      ~service_ns:(opt service_ns)
      ~bytes:(match payload with Some p -> String.length p | None -> 0)
      ~traced:(job.trace <> None)
  | None -> ());
  match payload with Some p -> send_reply t job.conn p | None -> ()

let execute t job =
  Fun.protect
    ~finally:(fun () -> release job.conn)
    (fun () ->
      let obs_on = Obs.enabled () in
      let timed = obs_on || job.trace <> None in
      let dequeue_ns = if timed then Telemetry.now_ns () else 0 in
      let queue_ns =
        if timed && job.enqueued_ns > 0 then
          max 0 (dequeue_ns - job.enqueued_ns)
        else 0
      in
      (match job.trace with
      | Some tr when job.enqueued_ns > 0 ->
        Telemetry.Trace.add tr "queue_wait" ~start_ns:job.enqueued_ns
          ~dur_ns:queue_ns
      | _ -> ());
      if obs_on then begin
        (match t.service with
        | Some s -> Obs.set_queue_depth (Parallel.Service.stats s).st_queued
        | None -> ());
        Obs.incr_inflight ()
      end;
      let account ~outcome payload =
        account t job ~outcome ~queue_ns ~dequeue_ns ~timed payload;
        if obs_on then Obs.decr_inflight ()
      in
      if not (Atomic.get job.conn.alive) then begin
        Atomic.incr t.s_cancelled;
        account ~outcome:(Obs.Err Protocol.Cancelled) None
      end
      else begin
        let expired () =
          match job.deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false
        in
        if expired () then begin
          Atomic.incr t.s_deadline;
          account
            ~outcome:(Obs.Err Protocol.Deadline_exceeded)
            (Some
               (Protocol.error_reply ~id:job.req.Protocol.id
                  Protocol.Deadline_exceeded
                  "deadline expired before execution finished"))
        end
        else begin
          let check () =
            if not (Atomic.get job.conn.alive) then raise Ops.Cancelled;
            if expired () then raise Ops.Deadline_exceeded
          in
          let env =
            {
              Ops.cache = t.cache;
              jobs = t.cfg.jobs;
              check;
              trace = job.trace;
            }
          in
          let id = job.req.Protocol.id in
          (match
             Telemetry.time span_request (fun () ->
                 Ops.dispatch env ~op:job.req.Protocol.op
                   job.req.Protocol.params)
           with
          | Ok result ->
            account ~outcome:Obs.Ok_reply
              (Some (Protocol.ok_reply ~id result))
          | Error msg ->
            account
              ~outcome:(Obs.Err Protocol.Bad_request)
              (Some (Protocol.error_reply ~id Protocol.Bad_request msg))
          | exception Ops.Cancelled ->
            Atomic.incr t.s_cancelled;
            account ~outcome:(Obs.Err Protocol.Cancelled) None
          | exception Ops.Deadline_exceeded ->
            Atomic.incr t.s_deadline;
            account
              ~outcome:(Obs.Err Protocol.Deadline_exceeded)
              (Some
                 (Protocol.error_reply ~id Protocol.Deadline_exceeded
                    "deadline expired during execution"))
          | exception exn ->
            (* an op blew up; the daemon must not *)
            account
              ~outcome:(Obs.Err Protocol.Internal)
              (Some
                 (Protocol.error_reply ~id Protocol.Internal
                    (Printexc.to_string exn))))
        end
      end)

(* --- per-connection reader thread --- *)

let handle_conn t conn =
  let rec loop () =
    match Frame.read ~max_payload:t.cfg.max_frame conn.fd with
    | Error Frame.Closed -> ()
    | Error (Frame.Corrupt msg) ->
      (* the byte stream is desynced: answer, then hang up *)
      Atomic.incr t.s_malformed;
      send_reply t conn
        (Protocol.error_reply ~id:None Protocol.Bad_request
           ("bad frame: " ^ msg))
    | Ok payload -> (
      (* parse time is measured only while the obs plane is on (one
         atomic read on the disabled path) *)
      let pt0 = if Obs.enabled () then Telemetry.now_ns () else 0 in
      match Protocol.parse_request payload with
      | Error msg ->
        (* framing was sound, only this request is bad: keep serving *)
        Atomic.incr t.s_malformed;
        send_reply t conn
          (Protocol.error_reply ~id:None Protocol.Bad_request msg);
        loop ()
      | Ok req ->
        Atomic.incr t.s_requests;
        (* the request-scoped trace is born here, at frame decode *)
        let trace =
          match Json.member "trace" req.Protocol.params with
          | Some (Json.Bool true) ->
            let id =
              match req.Protocol.id with
              | Some i -> string_of_int i
              | None -> req.Protocol.op
            in
            let tr = Telemetry.Trace.create ~id () in
            if pt0 > 0 then
              Telemetry.Trace.add tr "parse" ~start_ns:pt0
                ~dur_ns:(max 0 (Telemetry.now_ns () - pt0));
            Some tr
          | _ -> None
        in
        let deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
            req.Protocol.deadline_ms
        in
        let enqueued_ns =
          if Obs.enabled () || trace <> None then Telemetry.now_ns () else 0
        in
        let job = { conn; req; deadline; trace; enqueued_ns } in
        retain conn;
        let admitted =
          (not (Atomic.get t.stop_flag))
          &&
          match t.service with
          | Some service -> Parallel.Service.submit service job
          | None -> false
        in
        if not admitted then begin
          release conn;
          Atomic.incr t.s_shed;
          let reply =
            Protocol.error_reply ~id:req.Protocol.id Protocol.Overloaded
              "admission queue full"
          in
          if Obs.enabled () then
            Obs.record ~op:req.Protocol.op
              ~outcome:(Obs.Err Protocol.Overloaded) ~queue_ns:0 ~service_ns:0
              ();
          (match t.alog with
          | Some log ->
            (* a shed never queued or executed: no timings to report *)
            Obs.Access_log.record log ~id:req.Protocol.id ~op:req.Protocol.op
              ~outcome:(Obs.Err Protocol.Overloaded) ~queue_ns:None
              ~service_ns:None ~bytes:(String.length reply)
              ~traced:(trace <> None)
          | None -> ());
          send_reply t conn reply
        end;
        loop ())
  in
  (try loop () with _ -> ());
  Atomic.set conn.alive false;
  (* self-deregister so a long-lived daemon's list doesn't grow without
     bound; stop joins whatever snapshot it takes *)
  Mutex.lock t.conns_mutex;
  t.conns <- List.filter (fun (c, _) -> c != conn) t.conns;
  Mutex.unlock t.conns_mutex;
  release conn

(* --- listeners and accept loop --- *)

let listen_unix path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* distinguish a live server from a stale socket left by a crash *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      failwith (path ^ ": a server is already listening here")
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      Unix.close probe;
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception e ->
      Unix.close probe;
      raise e)
  | _ -> failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 64;
  fd

let listen_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith ("cannot resolve " ^ host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let accept_loop t =
  while not (Atomic.get t.stop_flag) do
    match Unix.select t.listeners [] [] 0.2 with
    | readable, _, _ ->
      List.iter
        (fun lfd ->
          if not (Atomic.get t.stop_flag) then
            match Unix.accept ~cloexec:true lfd with
            | fd, _ ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              let conn =
                {
                  fd;
                  alive = Atomic.make true;
                  wmutex = Mutex.create ();
                  refs = Atomic.make 1;
                }
              in
              let th = Thread.create (fun () -> handle_conn t conn) () in
              Mutex.lock t.conns_mutex;
              t.conns <- (conn, th) :: t.conns;
              Mutex.unlock t.conns_mutex
            | exception Unix.Unix_error _ -> ())
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.set_enabled cfg.obs;
  (* bound metric cardinality: only dispatchable ops get their own
     cell; client-invented names fold into "unknown" *)
  Obs.set_known_ops Ops.op_names;
  let ctx =
    Runner.Exec.create_ctx ~jobs:(max 1 cfg.jobs) ?cache_dir:cfg.cache_dir ()
  in
  let unix_fd = listen_unix cfg.socket_path in
  let listeners =
    unix_fd
    ::
    (match cfg.tcp with
    | Some hp -> (
      try [ listen_tcp hp ]
      with e ->
        Unix.close unix_fd;
        (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
        raise e)
    | None -> [])
  in
  let t =
    {
      cfg;
      cache = ctx.Runner.Exec.cache;
      listeners;
      service = None;
      stop_flag = Atomic.make false;
      acceptor = None;
      conns_mutex = Mutex.create ();
      conns = [];
      s_requests = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_deadline = Atomic.make 0;
      s_cancelled = Atomic.make 0;
      s_malformed = Atomic.make 0;
      s_client_gone = Atomic.make 0;
      alog =
        Option.map
          (fun path -> Obs.Access_log.open_ ~path ~sample:cfg.log_sample)
          cfg.access_log;
    }
  in
  t.service <-
    Some
      (Parallel.Service.create ~workers:(max 1 cfg.workers)
         ~queue_depth:(max 1 cfg.queue_depth)
         ~handler:(fun job -> execute t job));
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
    (* drain: the queue empties through the workers, replies included *)
    Option.iter Parallel.Service.shutdown t.service;
    t.service <- None;
    (* unblock readers parked in Unix.read, then join them *)
    Mutex.lock t.conns_mutex;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.conns_mutex;
    List.iter
      (fun (conn, _) ->
        Atomic.set conn.alive false;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    (* every admitted job has been executed and logged: flush the
       access log so a SIGTERM'd daemon leaves well-formed lines *)
    Option.iter
      (fun log ->
        Obs.Access_log.flush log;
        Obs.Access_log.close log)
      t.alog
  end

let serve cfg =
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
    [ Sys.sigterm; Sys.sigint ];
  let t = start cfg in
  Printf.eprintf "statsim serve: listening on %s%s (workers %d, queue %d)\n%!"
    cfg.socket_path
    (match cfg.tcp with
    | Some (h, p) -> Printf.sprintf " and %s:%d" h p
    | None -> "")
    (max 1 cfg.workers)
    (max 1 cfg.queue_depth);
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop t;
  let s = stats t in
  Printf.eprintf
    "statsim serve: drained; %d requests (%d shed, %d deadline-exceeded, %d \
     cancelled, %d malformed)\n\
     %!"
    s.requests s.shed s.deadline_exceeded s.cancelled s.malformed

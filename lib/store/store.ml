module Codec = Codec

(* Per-key in-process lock: lockf-style advisory file locks do not
   exclude threads/domains of the same process, so the file lock is
   nested inside a refcounted mutex interned by key digest. *)
type klock = { m : Mutex.t; mutable refs : int }

type t = {
  root : string;
  mutex : Mutex.t;  (* guards counters and the klock table *)
  klocks : (string, klock) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_written : int;
  mutable quarantined : int;
}

type stats = {
  hits : int;
  misses : int;
  bytes_written : int;
  quarantined : int;
}

type disk_stats = {
  entries : int;
  total_bytes : int;
  quarantine_entries : int;
}

let c_hits = Telemetry.counter "store.hits"
let c_misses = Telemetry.counter "store.misses"
let c_bytes = Telemetry.counter "store.bytes_written"
let c_quarantined = Telemetry.counter "store.quarantined"

let tmp_seq = Atomic.make 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let objects_dir t = Filename.concat t.root "objects"
let locks_dir t = Filename.concat t.root "locks"
let quarantine_dir t = Filename.concat t.root "quarantine"
let tmp_dir t = Filename.concat t.root "tmp"

let open_root root =
  let t =
    {
      root;
      mutex = Mutex.create ();
      klocks = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      bytes_written = 0;
      quarantined = 0;
    }
  in
  List.iter mkdir_p [ objects_dir t; locks_dir t; quarantine_dir t; tmp_dir t ];
  t

let root t = t.root

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      bytes_written = t.bytes_written;
      quarantined = t.quarantined;
    }
  in
  Mutex.unlock t.mutex;
  s

let key_digest key = Digest.to_hex (Digest.string key)

let entry_path t digest =
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub digest 0 2))
    (digest ^ ".bin")

(* --- per-key locking: in-process mutex around a per-key file lock --- *)

let acquire_klock t digest =
  Mutex.lock t.mutex;
  let kl =
    match Hashtbl.find_opt t.klocks digest with
    | Some kl ->
      kl.refs <- kl.refs + 1;
      kl
    | None ->
      let kl = { m = Mutex.create (); refs = 1 } in
      Hashtbl.add t.klocks digest kl;
      kl
  in
  Mutex.unlock t.mutex;
  Mutex.lock kl.m;
  kl

let release_klock t digest kl =
  Mutex.unlock kl.m;
  Mutex.lock t.mutex;
  kl.refs <- kl.refs - 1;
  if kl.refs = 0 then Hashtbl.remove t.klocks digest;
  Mutex.unlock t.mutex

let with_key_lock t ~key f =
  let digest = key_digest key in
  let kl = acquire_klock t digest in
  Fun.protect
    ~finally:(fun () -> release_klock t digest kl)
    (fun () ->
      let lock_path = Filename.concat (locks_dir t) (digest ^ ".lock") in
      let fd = Unix.openfile lock_path [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.lockf fd F_ULOCK 0 with Unix.Unix_error _ -> ());
          Unix.close fd)
        (fun () ->
          Unix.lockf fd F_LOCK 0;
          f ()))

(* --- reading --- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with End_of_file | Sys_error _ -> None)

(* LRU bookkeeping that survives noatime mounts: refresh the atime
   explicitly on every verified read, preserving the mtime. *)
let bump_atime path =
  try
    let st = Unix.stat path in
    Unix.utimes path (Unix.time ()) st.Unix.st_mtime
  with Unix.Unix_error _ -> ()

let quarantine t digest path =
  let rec fresh n =
    let dst =
      Filename.concat (quarantine_dir t)
        (Printf.sprintf "%s.%d.bin" digest n)
    in
    if Sys.file_exists dst then fresh (n + 1) else dst
  in
  (try Sys.rename path (fresh 0) with Sys_error _ -> ());
  Mutex.lock t.mutex;
  t.quarantined <- t.quarantined + 1;
  Mutex.unlock t.mutex;
  Telemetry.incr c_quarantined

(* the payload and its MD5, verified against the frame's *)
let find_verified t ~key =
  let digest = key_digest key in
  let path = entry_path t digest in
  match read_file path with
  | None -> None
  | Some bytes -> (
    match Codec.decode ~key bytes with
    | Ok v ->
      bump_atime path;
      Some v
    | Error _ ->
      quarantine t digest path;
      None)

let find t ~key = Option.map fst (find_verified t ~key)

(* --- writing --- *)

let put t ~key payload =
  let digest = key_digest key in
  let frame = Codec.encode ~key payload in
  let final = entry_path t digest in
  mkdir_p (Filename.dirname final);
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%s.%d.%d.tmp" digest (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  (match output_string oc frame with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp final;
  Mutex.lock t.mutex;
  t.bytes_written <- t.bytes_written + String.length frame;
  Mutex.unlock t.mutex;
  Telemetry.add c_bytes (String.length frame)

(* --- the cached-computation entry point --- *)

let lookup_decoded t ~key ~decode =
  match find_verified t ~key with
  | None -> None
  | Some (payload, md5) -> (
    match decode payload with
    | Ok v -> Some (v, md5)
    | Error _ ->
      (* framed bytes were intact but the payload no longer parses
         (e.g. written by an incompatible build): same quarantine-and-
         recompute policy as a damaged frame *)
      let digest = key_digest key in
      let path = entry_path t digest in
      if Sys.file_exists path then quarantine t digest path;
      None)

let hit t =
  Mutex.lock t.mutex;
  t.hits <- t.hits + 1;
  Mutex.unlock t.mutex;
  Telemetry.incr c_hits

let miss t =
  Mutex.lock t.mutex;
  t.misses <- t.misses + 1;
  Mutex.unlock t.mutex;
  Telemetry.incr c_misses

let lookup t ~key ~decode =
  let v = lookup_decoded t ~key ~decode in
  if Option.is_some v then hit t;
  v

let get_or_compute t ~key ~encode ~decode f =
  match lookup_decoded t ~key ~decode with
  | Some (v, _) ->
    hit t;
    v
  | None ->
    with_key_lock t ~key (fun () ->
        (* someone else may have published while we waited for the lock *)
        match lookup_decoded t ~key ~decode with
        | Some (v, _) ->
          hit t;
          v
        | None ->
          miss t;
          let v = f () in
          put t ~key (encode v);
          v)

(* --- maintenance --- *)

let list_dir dir =
  match Sys.readdir dir with
  | names -> Array.to_list names
  | exception Sys_error _ -> []

let iter_entries t f =
  List.iter
    (fun sub ->
      let subdir = Filename.concat (objects_dir t) sub in
      if Sys.is_directory subdir then
        List.iter
          (fun name ->
            if Filename.check_suffix name ".bin" then
              f (Filename.concat subdir name))
          (list_dir subdir))
    (list_dir (objects_dir t))

let disk_stats t =
  let entries = ref 0 and bytes = ref 0 in
  iter_entries t (fun path ->
      match Unix.stat path with
      | st ->
        incr entries;
        bytes := !bytes + st.Unix.st_size
      | exception Unix.Unix_error _ -> ());
  {
    entries = !entries;
    total_bytes = !bytes;
    quarantine_entries = List.length (list_dir (quarantine_dir t));
  }

let gc t ~max_bytes =
  if max_bytes < 0 then invalid_arg "Store.gc: negative byte budget";
  (* quarantined entries are dead weight by definition *)
  List.iter
    (fun name ->
      try Sys.remove (Filename.concat (quarantine_dir t) name)
      with Sys_error _ -> ())
    (list_dir (quarantine_dir t));
  let entries = ref [] in
  let total = ref 0 in
  iter_entries t (fun path ->
      match Unix.stat path with
      | st ->
        entries := (st.Unix.st_atime, path, st.Unix.st_size) :: !entries;
        total := !total + st.Unix.st_size
      | exception Unix.Unix_error _ -> ());
  (* oldest access first; path tie-break keeps the order deterministic *)
  let by_age =
    List.sort
      (fun (a1, p1, _) (a2, p2, _) ->
        match compare (a1 : float) a2 with 0 -> compare p1 p2 | c -> c)
      !entries
  in
  let evicted = ref 0 and freed = ref 0 in
  List.iter
    (fun (_, path, size) ->
      if !total > max_bytes then (
        try
          Sys.remove path;
          total := !total - size;
          freed := !freed + size;
          incr evicted
        with Sys_error _ -> ()))
    by_age;
  (!evicted, !freed)

let clear t =
  iter_entries t (fun path -> try Sys.remove path with Sys_error _ -> ());
  List.iter
    (fun dir ->
      List.iter
        (fun name ->
          let path = Filename.concat dir name in
          if not (Sys.is_directory path) then
            try Sys.remove path with Sys_error _ -> ())
        (list_dir dir))
    [ quarantine_dir t; locks_dir t; tmp_dir t ]

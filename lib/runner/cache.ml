type t = {
  profiles : Profile.Stat_profile.t Memo.t;
  references : Statsim.result Memo.t;
  plans : Kernel.Plan.t Memo.t;
  estimates : Analytical.Steady_state.estimate Memo.t;
  store : Store.t option;
  (* actual compute-thunk executions, as opposed to memo misses (which
     also count lookups the store answered), for [stats]. Atomic
     because distinct keys compute concurrently on worker domains. *)
  profile_computes : int Atomic.t;
  plan_computes : int Atomic.t;
  reference_computes : int Atomic.t;
  (* per-profile content digests (the plan key), by physical identity.
     The profile tier records them from bytes it already holds — its
     store put on a miss, the stored payload on a hit — so only a
     profile that never passed through the store is encoded again *)
  mutable pdigests : (Profile.Stat_profile.t * string) list;
  pdigest_mu : Mutex.t;
  (* per profile key, the MD5 and instruction count of its stored
     bytes: what [profile_plan] keys a plan by without decoding the
     profile, read from disk once per key for the cache's lifetime *)
  stored : (string * int) Memo.t;
}

type stats = {
  profile_hits : int;
  profile_misses : int;
  reference_hits : int;
  reference_misses : int;
  plan_hits : int;
  plan_misses : int;
  estimate_hits : int;
  estimate_misses : int;
  profile_computes : int;
  plan_computes : int;
  reference_computes : int;
  store_hits : int;
  store_misses : int;
  store_bytes_written : int;
  store_quarantined : int;
}

let create ?store () =
  {
    profiles = Memo.create ~name:"cache.profile" ();
    references = Memo.create ~name:"cache.reference" ();
    plans = Memo.create ~name:"cache.plan" ();
    estimates = Memo.create ~name:"cache.estimate" ();
    store;
    profile_computes = Atomic.make 0;
    plan_computes = Atomic.make 0;
    reference_computes = Atomic.make 0;
    pdigests = [];
    pdigest_mu = Mutex.create ();
    stored = Memo.create ();
  }

let stats t =
  let s =
    match t.store with
    | None ->
      ({ hits = 0; misses = 0; bytes_written = 0; quarantined = 0 }
        : Store.stats)
    | Some s -> Store.stats s
  in
  {
    profile_hits = Memo.hits t.profiles;
    profile_misses = Memo.misses t.profiles;
    reference_hits = Memo.hits t.references;
    reference_misses = Memo.misses t.references;
    plan_hits = Memo.hits t.plans;
    plan_misses = Memo.misses t.plans;
    estimate_hits = Memo.hits t.estimates;
    estimate_misses = Memo.misses t.estimates;
    profile_computes = Atomic.get t.profile_computes;
    plan_computes = Atomic.get t.plan_computes;
    reference_computes = Atomic.get t.reference_computes;
    store_hits = s.Store.hits;
    store_misses = s.Store.misses;
    store_bytes_written = s.Store.bytes_written;
    store_quarantined = s.Store.quarantined;
  }

let stats_json (s : stats) =
  let n v = Telemetry.Json.Num (float_of_int v) in
  Telemetry.Json.Obj
    [
      ("profile_hits", n s.profile_hits);
      ("profile_misses", n s.profile_misses);
      ("reference_hits", n s.reference_hits);
      ("reference_misses", n s.reference_misses);
      ("plan_hits", n s.plan_hits);
      ("plan_misses", n s.plan_misses);
      ("estimate_hits", n s.estimate_hits);
      ("estimate_misses", n s.estimate_misses);
      ("profile_computes", n s.profile_computes);
      ("plan_computes", n s.plan_computes);
      ("reference_computes", n s.reference_computes);
      ("store_hits", n s.store_hits);
      ("store_misses", n s.store_misses);
      ("store_bytes_written", n s.store_bytes_written);
      ("store_quarantined", n s.store_quarantined);
    ]

(* The canonical textual rendering is exhaustive and stable across OCaml
   versions, unlike Marshal bytes — a requirement now that keys outlive
   the process in the on-disk store. *)
let span_plan_compile = Telemetry.span "cache.plan.compile"

let cfg_key (cfg : Config.Machine.t) =
  Digest.to_hex (Digest.string (Config.Machine.canonical cfg))

let mode_key = function
  | Profile.Branch_profiler.Immediate -> "imm"
  | Profile.Branch_profiler.Delayed { fifo_size; squash_refetch } ->
    Printf.sprintf "del%d%c" fifo_size (if squash_refetch then 's' else 'm')

(* Second cache tier: in-memory memo first, then the on-disk store, then
   compute. The store key carries an artifact-kind prefix and the codec
   format version, so incompatible renderings never collide. *)
let tiered memo store_opt ~key ~store_key ~encode ~decode compute =
  Memo.get memo ~key (fun () ->
      match store_opt with
      | None -> compute ()
      | Some s -> Store.get_or_compute s ~key:store_key ~encode ~decode compute)

let digest_hex bytes = Digest.to_hex (Digest.string bytes)

(* [Serialize] promises [to_string (of_string s) = s], so the digest of
   the bytes a profile was decoded from is the digest of its encoding *)
let record_digest t p bytes =
  let d = digest_hex bytes in
  Mutex.protect t.pdigest_mu (fun () -> t.pdigests <- (p, d) :: t.pdigests)

let profile_digest t p =
  Mutex.protect t.pdigest_mu (fun () ->
      match List.find_opt (fun (q, _) -> q == p) t.pdigests with
      | Some (_, d) -> d
      | None ->
        let d = digest_hex (Profile.Serialize.to_string p) in
        t.pdigests <- (p, d) :: t.pdigests;
        d)

(* The memo key of a profile request and the collection it names:
   the one place the key format is built *)
let profile_request (t : t) ?(k = 1) ?(dep_cap = Profile.Sfg.dep_cap)
    ?branch_mode ?(perfect_caches = false) ?(perfect_bpred = false) cfg
    ~stream_key mk =
  let branch_mode =
    match branch_mode with
    | Some m -> m
    | None -> Profile.Branch_profiler.default_delayed cfg
  in
  let key =
    Printf.sprintf "%s|%s|k=%d|cap=%d|%s|pc=%b|pb=%b" stream_key (cfg_key cfg)
      k dep_cap (mode_key branch_mode) perfect_caches perfect_bpred
  in
  let collect () =
    Atomic.incr t.profile_computes;
    Profile.Stat_profile.collect ~k ~dep_cap ~branch_mode ~perfect_caches
      ~perfect_bpred cfg (mk ())
  in
  (key, collect)

let profile_store_key key =
  Printf.sprintf "profile/fmt%d/%s" Profile.Serialize.version key

let profile_tier t key collect =
  tiered t.profiles t.store ~key ~store_key:(profile_store_key key)
    ~encode:(fun p ->
      let s = Profile.Serialize.to_string p in
      record_digest t p s;
      s)
    ~decode:(fun s ->
      match Profile.Serialize.of_string s with
      | p ->
        record_digest t p s;
        Ok p
      | exception Failure msg -> Error msg)
    collect

let profile t ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg
    ~stream_key mk =
  let key, collect =
    profile_request t ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred
      cfg ~stream_key mk
  in
  profile_tier t key collect

let compile (t : t) ~r p =
  Atomic.incr t.plan_computes;
  (* a named span so a warm-store run can prove (calls = 0) that it
     never recompiled — Stat_profile.collect carries its own *)
  Telemetry.time span_plan_compile (fun () ->
      Kernel.Compile.plan ~reduction:r p)

(* Plans hold nothing of a machine (the [kernel] library does not
   depend on [config]), so the key is just the profile's content digest
   and the resolved reduction: one plan serves every pipeline
   configuration of a design-space sweep. *)
let plan_tier t ~digest ~r compute =
  let key = Printf.sprintf "%s|r=%d" digest r in
  tiered t.plans t.store ~key
    ~store_key:(Printf.sprintf "plan/fmt%d/%s" Kernel.Plan.version key)
    ~encode:Kernel.Plan.to_string
    ~decode:(fun s ->
      match Kernel.Plan.of_string s with
      | pl -> Ok pl
      | exception Failure msg -> Error msg)
    compute

let plan t ?reduction ?target_length (p : Profile.Stat_profile.t) =
  let r =
    Kernel.Compile.derive_reduction ?reduction ?target_length
      (max 1 p.instructions)
  in
  plan_tier t ~digest:(profile_digest t p) ~r (fun () -> compile t ~r p)

exception Empty_graph of string

let profile_plan t ?k cfg ~stream_key ~target_length mk =
  let key, collect = profile_request t ?k cfg ~stream_key mk in
  (* the call's own work, counted in its own closures: concurrent calls
     on a shared cache collect and compile for their own keys *)
  let at_most_once what =
    let n = ref 0 in
    fun () ->
      incr n;
      if !n > 1 then failwith ("Runner.Cache.profile_plan: " ^ what)
  in
  let collected = at_most_once "profile collected more than once" in
  let compiled = at_most_once "plan compiled more than once" in
  let collect () =
    collected ();
    collect ()
  in
  (* the plan key from the stored profile's bytes, read once per key:
     the MD5 the store's frame check verified, not a second hash of the
     bytes. A profile in the memo keys its plan as [plan] does *)
  let keyed =
    match t.store with
    | Some s when not (Memo.mem t.profiles ~key) -> (
      match
        Memo.get t.stored ~key (fun () ->
            match
              Store.lookup s ~key:(profile_store_key key) ~decode:(fun b ->
                  match Profile.Serialize.instructions b with
                  | n -> Ok n
                  | exception Failure msg -> Error msg)
            with
            | Some (n, md5) -> (Digest.to_hex md5, n)
            | None -> raise Not_found)
      with
      | v -> Some v
      | exception Not_found -> None)
    | Some _ | None -> None
  in
  let ( let* ) = Result.bind in
  let* digest, instructions =
    match keyed with
    | Some v -> Ok v
    | None ->
      let p = profile_tier t key collect in
      let* () = Kernel.Compile.check_survivors ~target_length p in
      Ok (profile_digest t p, p.instructions)
  in
  let r = Kernel.Compile.derive_reduction ~target_length (max 1 instructions) in
  (* a stored plan proves R leaves survivors (compiling an empty graph
     raises), so only the compute path needs the profile's graph *)
  match
    plan_tier t ~digest ~r (fun () ->
        let p = profile_tier t key collect in
        match Kernel.Compile.check_survivors ~reduction:r p with
        | Ok () ->
          compiled ();
          compile t ~r p
        | Error msg -> raise (Empty_graph msg))
  with
  | pl -> Ok pl
  | exception Empty_graph msg -> Error msg

(* The instant-answer tier behind the server's `estimate` op: the
   stationary solve is microseconds, but memoizing the whole estimate
   record keyed by (profile digest, machine, reduction) makes repeat
   estimates O(1) lookups and gives cache-stats an observable counter.
   No store tier — recomputing is cheaper than a disk round trip. *)
let estimate t ?reduction ?target_length cfg (p : Profile.Stat_profile.t) =
  let r =
    Kernel.Compile.derive_reduction ?reduction ?target_length
      (max 1 p.instructions)
  in
  let key = Printf.sprintf "%s|%s|r=%d" (profile_digest t p) (cfg_key cfg) r in
  Memo.get t.estimates ~key (fun () ->
      Analytical.Steady_state.estimate ~reduction:r cfg p)

let reference t ?max_instructions ?(perfect_caches = false)
    ?(perfect_bpred = false) cfg ~stream_key mk =
  let key =
    Printf.sprintf "%s|%s|max=%s|pc=%b|pb=%b" stream_key (cfg_key cfg)
      (match max_instructions with None -> "-" | Some n -> string_of_int n)
      perfect_caches perfect_bpred
  in
  tiered t.references t.store ~key
    ~store_key:
      (Printf.sprintf "reference/fmt%d/%s" Uarch.Metrics.wire_version key)
    ~encode:(fun (r : Statsim.result) -> Uarch.Metrics.encode r.metrics)
    ~decode:(fun s ->
      match Uarch.Metrics.decode s with
      | m -> Ok (Statsim.result_of_metrics cfg m)
      | exception Failure msg -> Error msg)
    (fun () ->
      Atomic.incr t.reference_computes;
      Statsim.reference ?max_instructions ~perfect_caches ~perfect_bpred cfg
        (mk ()))

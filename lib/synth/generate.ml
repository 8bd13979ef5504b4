(* The walk executes a Kernel.Plan — the reduced SFG lowered into flat
   arrays, alias samplers and fixed-point thresholds — so the
   per-instruction path does no hashing, float division or CDF scans.
   The control structure is the paper's nine-step algorithm. *)

(* Stage telemetry: the whole generation pass, the plan compilation
   within it, and the synthetic instructions produced. *)
let span_generate = Telemetry.span "synth.generate"
let span_compile = Telemetry.span "synth.compile"
let c_instructions = Telemetry.counter "synth.instructions"

(* The paper's dependency retry rule re-draws a distance up to 1,000
   times and then silently drops the dependency; this counter makes the
   drop path visible (a high rate means the profile's distance
   distributions are dominated by destination-less producers). *)
let c_dep_squashed = Telemetry.counter "synth.dep_squashed"

(* Distribution telemetry for the fidelity observatory: the dependency
   distances actually emitted (after the retry/squash rule, so what the
   simulator will see rather than what the profile stored) and the
   number of instructions between consecutive fetch-redirecting
   branches, which bounds the synthetic front-end's useful run length. *)
let h_dep_distance = Telemetry.histogram "synth.dep_distance"
let h_redirect_run = Telemetry.histogram "synth.redirect_run"

let dep_retries = 1_000

(* Where the random walk stands between two [next] calls, unboxed into
   three mutable ints so the per-instruction path allocates nothing:
   [emit] writes the instruction's packed words in place. [ph_after]
   means the block [node] has been fully emitted and its outgoing edge
   has not yet been drawn — deferring the draw to the next pull keeps
   the RNG call sequence identical to the materialized path, since
   there is a single consumer of the stream's generator. While
   emitting, [slot] is the next absolute slot index. *)
let ph_start = 0
let ph_emitting = 1
let ph_after = 2
let ph_finished = 3

type stream = {
  plan : Kernel.Plan.t;
  rng : Prng.t;
  remaining : int array;  (* per dense node index *)
  start_tree : Kernel.Fenwick.t;  (* remaining counts, for start picks *)
  live : int;  (* total block visits the walk owes *)
  (* recent destination-producing status, for the dependency retry rule *)
  recent_has_dest : bool array;
  mutable pos : int;
  (* [pos mod (dep_cap + 1)]: the ring write cursor, kept incrementally
     so the per-instruction path never pays an integer division *)
  mutable ring : int;
  mutable redirect_run : int;
  mutable visits : int;
  mutable phase : int;
  mutable node : int;
  mutable slot : int;
}

let stream_of_plan (plan : Kernel.Plan.t) ~seed =
  Array.iter
    (fun meta ->
      if Kernel.Plan.meta_ndeps meta > Trace.max_deps then
        invalid_arg "Generate: a plan slot with more than Trace.max_deps deps")
    plan.slot_meta;
  let remaining = Array.copy plan.node_occ in
  {
    plan;
    rng = Prng.create ~seed;
    remaining;
    start_tree = Kernel.Fenwick.create remaining;
    live = Array.fold_left ( + ) 0 remaining;
    recent_has_dest = Array.make (Profile.Sfg.dep_cap + 1) true;
    pos = 0;
    ring = 0;
    redirect_run = 0;
    visits = 0;
    phase = ph_start;
    node = -1;
    slot = 0;
  }

let stream ?reduction ?target_length (p : Profile.Stat_profile.t) ~seed =
  let tel = Telemetry.start () in
  let plan = Kernel.Compile.plan ?reduction ?target_length p in
  Telemetry.stop span_compile tel;
  stream_of_plan plan ~seed

let producer_has_dest t delta =
  delta > t.pos
  ||
  let len = Array.length t.recent_has_dest in
  if delta < len then
    (* the common case — profiled distances never exceed dep_cap, so the
       cursor-relative index stays within one wrap of the ring and a
       conditional add replaces the division *)
    let i = t.ring - delta in
    Array.unsafe_get t.recent_has_dest (if i < 0 then i + len else i)
  else t.recent_has_dest.((t.pos - delta) mod len)

(* squash the dependency, per the paper *)
let squash () =
  Telemetry.incr c_dep_squashed;
  0

(* A draw ends the retry loop when it is accepted, or when it is out of
   range (the loop raises on it). Top-level, with the stream passed as
   [exists_value]'s environment, so the test allocates no closure. *)
let ends_retry t delta =
  delta < 0 || delta > Profile.Sfg.dep_cap || producer_has_dest t delta

(* the draws the literal loop makes after a rejected first one *)
let doomed_jump = Prng.jump (dep_retries - 1)

(* top-level so each dependency draw costs calls, not a fresh closure *)
let rec try_draw t sampler n =
  if n = 0 then squash ()
  else
    let delta = Stats.Alias.sample sampler t.rng in
    if delta < 0 || delta > Profile.Sfg.dep_cap then
      invalid_arg "Generate: dependency distance outside [0, dep_cap]";
    if producer_has_dest t delta then delta
    else if
      n = dep_retries
      && not (Stats.Alias.exists_value sampler ends_retry t)
    then
      (* The accept test reads only [pos], [ring] and [recent_has_dest],
         which the loop never changes, and no value the table can return
         passes it: every remaining draw is rejected. Jump the stream
         past those draws and squash, leaving the state, the result and
         the counter exactly as the literal loop would. *)
      match Stats.Alias.draws_per_sample sampler with
      | Some 0 -> squash ()
      | Some 1 ->
        Prng.advance t.rng doomed_jump;
        squash ()
      | _ -> try_draw t sampler (n - 1)
    else try_draw t sampler (n - 1)

let sample_dep t sampler =
  if Stats.Alias.is_empty sampler then 0
  else begin
    let delta = try_draw t sampler dep_retries in
    Telemetry.observe h_dep_distance delta;
    delta
  end

(* [emit] is the per-instruction floor of the walk: it writes index [i]
   of [out] in place, so it reads the plan with [unsafe_get]: every
   index is established by construction — [ni] and [si] come from the
   walk over [node_slot_off]; [Compile.plan] derives the offsets from
   the arrays they index, and [Plan.of_string] rejects offsets,
   dependency counts and sampler values outside them. *)
let emit t ni si (out : Trace.t) i =
  let p = t.plan in
  let rng = t.rng in
  let meta = Array.unsafe_get p.Kernel.Plan.slot_meta si in
  let d0 = Array.unsafe_get p.slot_dep_off si in
  let nd = Kernel.Plan.meta_ndeps meta in
  (* operand order, then waw/war when present, one distance per field *)
  let deps = ref 0 in
  for j = 0 to nd - 1 do
    deps :=
      !deps
      lor (sample_dep t (Array.unsafe_get p.slot_deps (d0 + j))
          lsl (Trace.dep_bits * j))
  done;
  (* no local helper: a closure over [ni] would be allocated per call *)
  let l1i = Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_l1i ni) in
  let l2i =
    l1i && Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_l2i ni)
  in
  let itlb = Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_itlb ni) in
  let is_load = Kernel.Plan.meta_is_load meta in
  let l1d =
    is_load && Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_l1d ni)
  in
  let l2d =
    l1d && Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_l2d ni)
  in
  let dtlb =
    is_load && Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_dtlb ni)
  in
  let branch =
    if not (Kernel.Plan.meta_is_branch meta) then 0
    else begin
      let taken =
        Kernel.Plan.sample_rate rng (Array.unsafe_get p.thr_taken ni)
      in
      let thr_misred = Array.unsafe_get p.thr_misred ni in
      (* one raw draw classifies the branch outcome *)
      if thr_misred <= 0 then
        Uarch.Feed.branch_bits ~taken ~mispredict:false ~redirect:false
      else begin
        let u = Prng.bits rng in
        let mispredict = u < Array.unsafe_get p.thr_mis ni in
        let redirect = (not mispredict) && u < thr_misred in
        if redirect then begin
          Telemetry.observe h_redirect_run t.redirect_run;
          t.redirect_run <- -1
        end;
        Uarch.Feed.branch_bits ~taken ~mispredict ~redirect
      end
    end
  in
  Array.unsafe_set out.code i
    (Trace.code
       ~feed:
         (Uarch.Feed.word ~klass:(Kernel.Plan.meta_class meta) ~branch
            ~producers:nd)
       ~fetch:(Cache.Hierarchy.outcome ~l1_miss:l1i ~l2_miss:l2i ~tlb_miss:itlb)
       ~load:(Cache.Hierarchy.outcome ~l1_miss:l1d ~l2_miss:l2d ~tlb_miss:dtlb)
       ~block:(Array.unsafe_get p.node_block ni));
  Array.unsafe_set out.deps i !deps;
  Array.unsafe_set t.recent_has_dest t.ring (Kernel.Plan.meta_has_dest meta);
  t.pos <- t.pos + 1;
  t.ring <-
    (let r = t.ring + 1 in
     if r = Array.length t.recent_has_dest then 0 else r);
  (* synth.instructions is charged by the caller: per pull in [next],
     batched in the materializing fill loop *)
  t.redirect_run <- t.redirect_run + 1

(* step 1: start-node selection by cumulative occurrence distribution,
   against the Fenwick tree over remaining counts (O(log n)); -1 when
   no occurrence remains *)
let pick_start t =
  let total = Kernel.Fenwick.total t.start_tree in
  if total = 0 then -1
  else Kernel.Fenwick.find t.start_tree (1 + Prng.int t.rng total)

let start_block t ni =
  t.remaining.(ni) <- t.remaining.(ni) - 1;
  Kernel.Fenwick.add t.start_tree ni (-1);
  t.visits <- t.visits + 1;
  t.phase <- ph_emitting;
  t.node <- ni;
  t.slot <- t.plan.node_slot_off.(ni)

let restart t =
  if t.visits >= t.live then t.phase <- ph_finished
  else
    let ni = pick_start t in
    if ni >= 0 then start_block t ni else t.phase <- ph_finished

(* step 9: follow an outgoing edge by transition probability, via the
   node's alias table over successor indices *)
let advance t ni =
  let edges = t.plan.edges.(ni) in
  if (not t.plan.use_edges) || Stats.Alias.is_empty edges then restart t
  else begin
    let succ = Stats.Alias.sample edges t.rng in
    if t.remaining.(succ) > 0 then start_block t succ else restart t
  end

let rec next t (out : Trace.t) i =
  if i < 0 || i >= Trace.length out then
    invalid_arg "Generate.next: index outside the buffer";
  if t.phase = ph_emitting then begin
    let ni = t.node in
    let si = t.slot in
    if si >= t.plan.node_slot_off.(ni + 1) then begin
      t.phase <- ph_after;
      next t out i
    end
    else begin
      t.slot <- si + 1;
      emit t ni si out i;
      Telemetry.incr c_instructions;
      true
    end
  end
  else if t.phase = ph_after then begin
    advance t t.node;
    next t out i
  end
  else if t.phase = ph_start then begin
    restart t;
    next t out i
  end
  else false

(* Instructions the stream will still emit: slots of every remaining
   visit plus the unemitted slots of the visit in flight. Exact, so the
   materializer can fill a right-sized array. *)
let expected t =
  let p = t.plan in
  let n = ref 0 in
  Array.iteri
    (fun ni rem ->
      n := !n + (rem * (p.Kernel.Plan.node_slot_off.(ni + 1) - p.node_slot_off.(ni))))
    t.remaining;
  if t.phase = ph_emitting then
    n := !n + (p.node_slot_off.(t.node + 1) - t.slot);
  !n

let drain t ~seed =
  (* the walk's length is known up front, so the trace is filled in
     place: per instruction this costs one [emit], with no per-pull
     dispatch, and the instruction counter is settled once at the end *)
  let n = expected t in
  let out = Trace.create ~k:t.plan.k ~reduction:t.plan.reduction ~seed n in
  let i = ref 0 in
  if t.phase = ph_start then restart t;
  while t.phase <> ph_finished do
    if t.phase = ph_emitting then begin
      let ni = t.node in
      let s1 = t.plan.node_slot_off.(ni + 1) in
      let si = ref t.slot in
      while !si < s1 do
        (* in bounds because [expected] counts exactly the slots this
           loop will emit (asserted below) *)
        emit t ni !si out !i;
        incr i;
        incr si
      done;
      t.slot <- s1;
      t.phase <- ph_after
    end
    else advance t t.node
  done;
  assert (!i = n);
  Telemetry.add c_instructions n;
  out

let generate ?reduction ?target_length (p : Profile.Stat_profile.t) ~seed =
  let tel = Telemetry.start () in
  let trace = drain (stream ?reduction ?target_length p ~seed) ~seed in
  Telemetry.stop span_generate tel;
  trace

let generate_of_plan plan ~seed =
  let tel = Telemetry.start () in
  let trace = drain (stream_of_plan plan ~seed) ~seed in
  Telemetry.stop span_generate tel;
  trace

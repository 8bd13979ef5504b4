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

(* The walk's state, unboxed into mutable ints so the per-instruction
   path allocates nothing: [emit] writes the instruction's packed words
   in place. *)
type walk = {
  plan : Kernel.Plan.t;
  rng : Prng.t;
  remaining : int array;  (* per dense node index *)
  start_tree : Kernel.Fenwick.t;  (* remaining counts, for start picks *)
  (* recent destination-producing status, for the dependency retry rule *)
  recent_has_dest : bool array;
  mutable pos : int;
  (* [pos mod (dep_cap + 1)]: the ring write cursor, kept incrementally
     so the per-instruction path never pays an integer division *)
  mutable ring : int;
  mutable redirect_run : int;
}

let walk_of_plan (plan : Kernel.Plan.t) ~seed =
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
    recent_has_dest = Array.make (Profile.Sfg.dep_cap + 1) true;
    pos = 0;
    ring = 0;
    redirect_run = 0;
  }

let[@inline] producer_has_dest t delta =
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
   range (the loop raises on it). Top-level, with the walk passed as
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

let[@inline] sample_dep t sampler =
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
let[@inline] emit t ni si (out : Trace.t) i =
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
  (* synth.instructions is charged once per trace, by [fill] *)
  t.redirect_run <- t.redirect_run + 1

(* step 1: start-node selection by cumulative occurrence distribution,
   against the Fenwick tree over remaining counts (O(log n)); -1 when
   no occurrence remains *)
let[@inline] pick_start t =
  let total = Kernel.Fenwick.total t.start_tree in
  if total = 0 then -1
  else Kernel.Fenwick.find t.start_tree (1 + Prng.int t.rng total)

(* step 9: follow an outgoing edge by transition probability, via the
   node's alias table over successor indices; a dead end or an
   exhausted successor restarts at step 1 *)
let[@inline] follow t ni =
  let edges = t.plan.edges.(ni) in
  if (not t.plan.use_edges) || Stats.Alias.is_empty edges then pick_start t
  else begin
    let succ = Stats.Alias.sample edges t.rng in
    if t.remaining.(succ) > 0 then succ else pick_start t
  end

(* The walk: pick a start node, emit its slots, follow an edge or
   restart, until every reduced occurrence count is zero. Per
   instruction this costs one [emit], and the instruction counter is
   settled once at the end. *)
let fill plan ~seed =
  let t = walk_of_plan plan ~seed in
  let n = Kernel.Plan.instructions plan in
  let out = Trace.create ~k:plan.k ~reduction:plan.reduction ~seed n in
  let i = ref 0 in
  let ni = ref (pick_start t) in
  while !ni >= 0 do
    let node = !ni in
    t.remaining.(node) <- t.remaining.(node) - 1;
    Kernel.Fenwick.add t.start_tree node (-1);
    for si = plan.node_slot_off.(node) to plan.node_slot_off.(node + 1) - 1 do
      (* in bounds because [Plan.instructions] counts exactly the
         slots this loop emits (asserted below) *)
      emit t node si out !i;
      incr i
    done;
    ni := follow t node
  done;
  assert (!i = n);
  Telemetry.add c_instructions n;
  out

let generate ?reduction ?target_length (p : Profile.Stat_profile.t) ~seed =
  let tel = Telemetry.start () in
  let tc = Telemetry.start () in
  let plan = Kernel.Compile.plan ?reduction ?target_length p in
  Telemetry.stop span_compile tc;
  let trace = fill plan ~seed in
  Telemetry.stop span_generate tel;
  trace

let generate_of_plan plan ~seed =
  let tel = Telemetry.start () in
  let trace = fill plan ~seed in
  Telemetry.stop span_generate tel;
  trace

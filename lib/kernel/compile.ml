(* Lowering: reduced SFG -> Plan.t. Runs once per (profile, R) pair;
   everything per-instruction moves out of here and into the flat
   arrays. Node indices follow SFG key order so the layout never
   depends on hash-table iteration order. *)

(* Also used by every caller that needs the R a plan will be compiled
   at (Synth.Stratify, Runner.Cache, [check_survivors]); the error text keeps
   the [Generate.generate] prefix because that is the user-facing entry
   point. *)
let derive_reduction ?reduction ?target_length total =
  match (reduction, target_length) with
  | Some r, None -> r
  | None, Some len ->
    (* ceiling division: flooring R here lets a short profile overshoot
       the requested length by a whole reduction bucket (e.g. 10,000
       instructions at target 6,000 floors to R=1 and emits all
       10,000); rounding R up keeps the trace at or under target *)
    let len = max 1 len in
    max 1 ((total + len - 1) / len)
  | None, None -> 100
  | Some _, Some _ ->
    invalid_arg "Generate.generate: give reduction or target_length, not both"

(* [plan]'s survival rule, checked before any engine runs: an R so large
   that every node's [occurrences / R] is 0 leaves nothing to walk. *)
let check_survivors ?reduction ?target_length (p : Profile.Stat_profile.t) =
  let r = derive_reduction ?reduction ?target_length (max 1 p.instructions) in
  let survives = ref false in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      if n.occurrences / r > 0 then survives := true);
  if !survives then Ok ()
  else
    Error
      (Printf.sprintf
         "reduction factor %d leaves an empty graph (R too large for this \
          profile)"
         r)

let lower_node_edges index_of_key (n : Profile.Sfg.node) =
  let out = ref [] in
  Hashtbl.iter
    (fun succ count ->
      match Hashtbl.find_opt index_of_key succ with
      | Some idx -> out := (succ, idx, !count) :: !out
      | None -> ())
    n.edges;
  (* sorted by successor key: deterministic alias construction order *)
  let out =
    List.sort (fun (ka, _, _) (kb, _, _) -> compare ka kb) !out
    |> Array.of_list
  in
  Stats.Alias.of_weights
    ~values:(Array.map (fun (_, idx, _) -> idx) out)
    ~weights:(Array.map (fun (_, _, c) -> c) out)

let lower_slot (slot : Profile.Sfg.slot) =
  let operand = Array.map Stats.Alias.of_histogram slot.deps in
  let anti =
    not
      (Stats.Histogram.is_empty slot.waw && Stats.Histogram.is_empty slot.war)
  in
  let samplers =
    if anti then
      Array.append operand
        [|
          Stats.Alias.of_histogram slot.waw; Stats.Alias.of_histogram slot.war;
        |]
    else operand
  in
  let meta =
    Plan.pack_meta ~klass:slot.klass ~anti ~ndeps:(Array.length samplers)
  in
  (meta, samplers)

let plan ?reduction ?target_length (p : Profile.Stat_profile.t) =
  let total_instructions = max 1 p.instructions in
  let r = derive_reduction ?reduction ?target_length total_instructions in
  if r < 1 then invalid_arg "Generate.generate: reduction must be >= 1";
  let survivors = ref [] in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      if n.occurrences / r > 0 then survivors := n :: !survivors);
  let nodes =
    List.sort
      (fun (a : Profile.Sfg.node) (b : Profile.Sfg.node) ->
        compare a.key b.key)
      !survivors
    |> Array.of_list
  in
  let nn = Array.length nodes in
  if nn = 0 then
    invalid_arg
      "Generate.generate: reduction factor leaves an empty graph (R too \
       large for this profile)";
  let index_of_key = Hashtbl.create (2 * nn) in
  Array.iteri (fun i (n : Profile.Sfg.node) -> Hashtbl.add index_of_key n.key i) nodes;
  let node_slot_off = Array.make (nn + 1) 0 in
  Array.iteri
    (fun i (n : Profile.Sfg.node) ->
      node_slot_off.(i + 1) <- node_slot_off.(i) + Array.length n.slots)
    nodes;
  let nslots = node_slot_off.(nn) in
  let slot_meta = Array.make nslots 0 in
  let slot_dep_off = Array.make (nslots + 1) 0 in
  let dep_tables = ref [] and ndeps = ref 0 in
  let slot_idx = ref 0 in
  Array.iter
    (fun (n : Profile.Sfg.node) ->
      Array.iter
        (fun slot ->
          let meta, samplers = lower_slot slot in
          slot_meta.(!slot_idx) <- meta;
          ndeps := !ndeps + Array.length samplers;
          slot_dep_off.(!slot_idx + 1) <- !ndeps;
          dep_tables := samplers :: !dep_tables;
          incr slot_idx)
        n.slots)
    nodes;
  let slot_deps = Array.concat (List.rev !dep_tables) in
  let thr num den = Plan.threshold ~num ~den in
  {
    Plan.k = p.k;
    reduction = r;
    (* k = 0 means "no edges in the graph" (Section 2.1.1): blocks are
       drawn independently from the occurrence distribution *)
    use_edges = p.k > 0;
    node_block = Array.map (fun (n : Profile.Sfg.node) -> n.block) nodes;
    node_occ = Array.map (fun (n : Profile.Sfg.node) -> n.occurrences / r) nodes;
    node_slot_off;
    edges = Array.map (lower_node_edges index_of_key) nodes;
    thr_taken =
      Array.map
        (fun (n : Profile.Sfg.node) ->
          (* a node that never executed its branch emits taken
             branches: taken by default *)
          if n.br_execs = 0 then Plan.always
          else thr n.br_taken n.br_execs)
        nodes;
    thr_mis =
      Array.map
        (fun (n : Profile.Sfg.node) -> thr n.br_mispredict n.br_execs)
        nodes;
    thr_misred =
      Array.map
        (fun (n : Profile.Sfg.node) ->
          thr (n.br_mispredict + n.br_redirect) n.br_execs)
        nodes;
    thr_l1i =
      Array.map (fun (n : Profile.Sfg.node) -> thr n.l1i_misses n.fetches) nodes;
    thr_l2i =
      Array.map
        (fun (n : Profile.Sfg.node) -> thr n.l2i_misses n.l1i_misses)
        nodes;
    thr_itlb =
      Array.map
        (fun (n : Profile.Sfg.node) -> thr n.itlb_misses n.fetches)
        nodes;
    thr_l1d =
      Array.map (fun (n : Profile.Sfg.node) -> thr n.l1d_misses n.loads) nodes;
    thr_l2d =
      Array.map
        (fun (n : Profile.Sfg.node) -> thr n.l2d_misses n.l1d_misses)
        nodes;
    thr_dtlb =
      Array.map
        (fun (n : Profile.Sfg.node) -> thr n.dtlb_misses n.loads)
        nodes;
    slot_meta;
    slot_dep_off;
    slot_deps;
  }

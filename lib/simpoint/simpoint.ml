module Kmeans = Kmeans

type pick = { interval_index : int; weight : float }

type t = {
  interval : int;
  n_intervals : int;
  picks : pick list;
  clusters : int;
}

(* Basic-block vectors are sparse in block-id space; SimPoint random-
   projects them to a small dense dimension before clustering. The
   projection row for a block id is derived from a hash so the full
   matrix never materializes. *)
let projection_entry ~seed ~block ~dim =
  let h = ref (block * 2654435761) in
  h := !h lxor (dim * 40503);
  h := !h lxor seed;
  h := !h * 2246822519;
  h := (!h lsr 13) lxor !h;
  float_of_int (!h land 0xFFFF) /. 65536.0

(* SimPoint's clustering setup: projected dimensions, the largest k
   the BIC selection tries, and the projection and k-means seed *)
let dims = 16
let max_clusters = 10
let seed = 1

let analyze ~interval gen =
  if interval <= 0 then invalid_arg "Simpoint.analyze: interval <= 0";
  let vectors = ref [] in
  let current = Hashtbl.create 256 in
  let count = ref 0 in
  let flush_interval () =
    if !count > 0 then begin
      let v = Array.make dims 0.0 in
      Hashtbl.iter
        (fun block insts ->
          let w = float_of_int !insts /. float_of_int !count in
          for d = 0 to dims - 1 do
            v.(d) <- v.(d) +. (w *. projection_entry ~seed ~block ~dim:d)
          done)
        current;
      vectors := v :: !vectors;
      Hashtbl.reset current;
      count := 0
    end
  in
  let rec loop () =
    match gen () with
    | None -> ()
    | Some (i : Isa.Dyn_inst.t) ->
      (match Hashtbl.find_opt current i.block with
      | Some r -> incr r
      | None -> Hashtbl.add current i.block (ref 1));
      incr count;
      if !count = interval then flush_interval ();
      loop ()
  in
  loop ();
  flush_interval ();
  let points = Array.of_list (List.rev !vectors) in
  if Array.length points = 0 then
    invalid_arg "Simpoint.analyze: empty stream";
  let rng = Prng.create ~seed:(seed + 7) in
  let r = Kmeans.best ~max_clusters rng ~points in
  let n = Array.length points in
  (* representative: the interval closest to each non-empty centroid *)
  let sqdist a b =
    let acc = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc
  in
  let picks = ref [] in
  for c = 0 to r.k - 1 do
    let members = ref 0 and best = ref (-1) and best_d = ref infinity in
    for i = 0 to n - 1 do
      if r.assignment.(i) = c then begin
        incr members;
        let d = sqdist points.(i) r.centroids.(c) in
        if d < !best_d then begin
          best_d := d;
          best := i
        end
      end
    done;
    if !members > 0 then
      picks :=
        {
          interval_index = !best;
          weight = float_of_int !members /. float_of_int n;
        }
        :: !picks
  done;
  {
    interval;
    n_intervals = n;
    picks = List.sort (fun a b -> compare a.interval_index b.interval_index) !picks;
    clusters = List.length !picks;
  }

(* --- SFG phase classification (PR 10) ---------------------------------
   Stratified replication reuses the same clustering machinery, but over
   SFG *nodes* instead of execution intervals: each node is summarized
   by its behavioural rates and k-means groups nodes into phase strata
   whose replica variance the Neyman allocator can then measure. *)

let node_features (n : Profile.Sfg.node) =
  let nslots = Array.length n.slots in
  let insts = float_of_int (max 1 (n.occurrences * nslots)) in
  let lat_sum =
    Array.fold_left
      (fun acc (s : Profile.Sfg.slot) ->
        acc + Config.Machine.op_latency s.klass)
      0 n.slots
  in
  let lat_mean = float_of_int lat_sum /. float_of_int (max 1 nslots) in
  [|
    Profile.Sfg.mispredict_rate n;
    Profile.Sfg.redirect_rate n;
    Profile.Sfg.taken_rate n;
    Profile.Sfg.l1i_rate n;
    Profile.Sfg.l2i_rate n;
    Profile.Sfg.itlb_rate n;
    Profile.Sfg.l1d_rate n;
    Profile.Sfg.l2d_rate n;
    Profile.Sfg.dtlb_rate n;
    float_of_int n.loads /. insts;
    (* block-shape features, squashed into rate scale so Euclidean
       distance is not dominated by raw counts *)
    Float.min 1.0 (float_of_int nslots /. 32.0);
    Float.min 1.0 (lat_mean /. 10.0);
  |]

let max_strata = 4

let classify_nodes nodes =
  if nodes = [] then invalid_arg "Simpoint.classify_nodes: no nodes";
  let points = Array.of_list (List.map node_features nodes) in
  let rng = Prng.create ~seed in
  Kmeans.best ~max_clusters:max_strata rng ~points

let simulated_instructions t = List.length t.picks * t.interval

let simulate_warm cfg t ~stream_factory =
  (* one warm pass; the commit hook records the cycle at every interval
     boundary so each interval's warm CPI can be read off afterwards *)
  let n = t.n_intervals in
  let boundary_cycles = Array.make (n + 1) 0 in
  let hook ~committed ~cycle =
    if committed mod t.interval = 0 && committed / t.interval <= n then
      boundary_cycles.(committed / t.interval) <- cycle
  in
  let m = Uarch.Eds.run ~commit_hook:hook cfg (stream_factory ()) in
  (* the final partial interval (if any) keeps the last boundary *)
  let last_full = m.Uarch.Metrics.committed / t.interval in
  let interval_ipc i =
    if i >= last_full then Uarch.Metrics.ipc m
    else
      let cycles = boundary_cycles.(i + 1) - boundary_cycles.(i) in
      if cycles <= 0 then Uarch.Metrics.ipc m
      else float_of_int t.interval /. float_of_int cycles
  in
  let cpi =
    List.fold_left
      (fun acc p ->
        let ipc = interval_ipc p.interval_index in
        if ipc > 0.0 then acc +. (p.weight /. ipc) else acc)
      0.0 t.picks
  in
  if cpi > 0.0 then 1.0 /. cpi else 0.0

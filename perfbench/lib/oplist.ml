(* Seeded op lists. Every run of a workload executes the same multiset
   of ops: the simulate and master seeds come from a fixed pool, one per
   op slot. The run's seed permutes the workload order and the op order,
   and so decides which op takes which slot and seed. Runs with
   different seeds therefore do the same work (and the accuracy figure
   is the same), while the order the program sees them in changes. The
   program only ever sees the resulting requests. *)

(* Fixed op counts derived from the requested run length, never from
   elapsed time, so every run of a seed executes the same ops. Each
   timed phase has at least 100 ops, so ten samples lie beyond p90. *)
let cli_passes ~seconds = max 3 (seconds * 2 / 5)
let dse_ops ~seconds = 3 * max 34 (seconds * 10 / 3)
let serve_ops ~seconds = 100 * max 2 (seconds * 3 / 10)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* the seed pool: independent of the run's seed *)
let pool ~salt = rng ~seed:0x5EED ~salt

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffled st l =
  let a = Array.of_list l in
  shuffle st a;
  Array.to_list a

(* simulate and master seeds: positive, exact as JSON numbers *)
let new_seed st = 1 + Random.State.int st 0x3FFFFFFF

(* --- cli-session --- *)

type cli_op = { pass : int; bench : string; cold : bool; seed : int }

let warm_per_cold = 3

(* One pass per store dir: every workload once cold (store miss), then
   [warm_per_cold] times warm with new seeds, workloads in seed order. *)
let cli_session ~benches ~seed ~passes =
  let seeds = pool ~salt:1 and st = rng ~seed ~salt:1 in
  let canonical =
    List.init passes (fun pass ->
        List.map
          (fun bench ->
            List.init (1 + warm_per_cold) (fun i ->
                { pass; bench; cold = i = 0; seed = new_seed seeds }))
          benches)
  in
  List.concat_map (fun pass -> List.concat (shuffled st pass)) canonical

(* --- dse-sweep --- *)

type dse_op = { bench : string; seed : int }

(* The same number of sweeps per workload, each with its own master
   seed, in seeded order. *)
let dse_sweep ~benches ~seed ~ops =
  let nb = List.length benches in
  if ops mod nb <> 0 then
    invalid_arg "Oplist.dse_sweep: ops must be a multiple of the workload count";
  let seeds = pool ~salt:2 and st = rng ~seed ~salt:2 in
  shuffled st
    (List.concat_map
       (fun bench -> List.init (ops / nb) (fun _ -> { bench; seed = new_seed seeds }))
       benches)

(* --- serve-warm --- *)

type serve_class = Estimate | Simulate | Stratify | Replicate

(* In expected-latency order, with the mix shares in percent. The p50
   sits 18 points inside simulate and the p90 10 points inside
   replicate, which must therefore stay the slowest class. The p50 is
   not put in estimate: a sub-millisecond memo hit waits mostly on
   process wakeups, and its median moved by a factor of 2-4 between
   quiet and busy periods of the host. *)
let serve_classes = [ (Estimate, 28); (Simulate, 40); (Stratify, 12); (Replicate, 20) ]

let serve_class_name = function
  | Estimate -> "estimate"
  | Simulate -> "simulate"
  | Stratify -> "stratify"
  | Replicate -> "replicate"

type serve_op = { cls : serve_class; bench : string; seed : int }

(* Every class spreads its ops evenly over the workloads. *)
let serve_warm ~benches ~seed ~ops =
  let nb = List.length benches in
  if ops mod 100 <> 0 then invalid_arg "Oplist.serve_warm: ops must be a multiple of 100";
  let per_class = List.map (fun (c, share) -> (c, ops * share / 100)) serve_classes in
  if List.exists (fun (_, k) -> k mod nb <> 0) per_class then
    invalid_arg "Oplist.serve_warm: every class count must be a multiple of the workload count";
  let seeds = pool ~salt:3 and st = rng ~seed ~salt:3 in
  let benches = Array.of_list benches in
  shuffled st
    (List.concat_map
       (fun (cls, k) ->
         List.init k (fun i -> { cls; bench = benches.(i mod nb); seed = new_seed seeds }))
       per_class)

(* --- percentile placement guard --- *)

(* The class that holds percentile [p], with classes laid out in
   latency order with [counts] ops each, and the percentile points
   between [p] and the nearer edge of that class. A margin of at least
   10 keeps the percentile inside one class from run to run. *)
let locate counts p =
  let n = float_of_int (List.fold_left ( + ) 0 counts) in
  let rec find i lo = function
    | [] -> invalid_arg "Oplist.locate: p beyond 100"
    | c :: rest ->
      let hi = lo +. (100.0 *. float_of_int c /. n) in
      if p <= hi then (i, Float.min (p -. lo) (hi -. p)) else find (i + 1) hi rest
  in
  find 0 0.0 counts

let count_by f classes l = List.map (fun c -> List.length (List.filter (f c) l)) classes

let cli_class_counts ops =
  count_by (fun cold (o : cli_op) -> o.cold = cold) [ false; true ] ops

let serve_class_counts ops =
  count_by (fun c (o : serve_op) -> o.cls = c) (List.map fst serve_classes) ops

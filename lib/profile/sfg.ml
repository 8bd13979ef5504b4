let dep_cap = 512
let max_k = 3
let max_deps = 6
let block_bits = 16
let block_mask = (1 lsl block_bits) - 1

type slot = {
  klass : Isa.Iclass.t;
  mutable nsrcs : int;
  mutable deps : Stats.Histogram.t array;
  waw : Stats.Histogram.t;
  war : Stats.Histogram.t;
}

type node = {
  key : int;
  block : int;
  mutable occurrences : int;
  mutable slots : slot array;
  edges : (int, int ref) Hashtbl.t;
  mutable br_execs : int;
  mutable br_taken : int;
  mutable br_mispredict : int;
  mutable br_redirect : int;
  mutable fetches : int;
  mutable l1i_misses : int;
  mutable l2i_misses : int;
  mutable itlb_misses : int;
  mutable loads : int;
  mutable l1d_misses : int;
  mutable l2d_misses : int;
  mutable dtlb_misses : int;
}

type t = { k : int; table : (int, node) Hashtbl.t }

let create ~k =
  if k < 0 || k > max_k then invalid_arg "Sfg.create: k out of [0,3]";
  { k; table = Hashtbl.create 4096 }


let key_of_history hist ~len =
  if len <= 0 || len > max_k + 1 then invalid_arg "Sfg.key_of_history";
  let key = ref 0 in
  for i = len - 1 downto 0 do
    (* +1 so that an absent history slot (short start-of-stream keys)
       cannot collide with block id 0 *)
    let b = hist.(i) + 1 in
    if b < 1 || b > block_mask then invalid_arg "Sfg: block id out of range";
    key := (!key lsl block_bits) lor b
  done;
  !key

let find t ~key = Hashtbl.find_opt t.table key

let find_or_add t ~key ~block =
  match Hashtbl.find_opt t.table key with
  | Some n -> n
  | None ->
    let n =
      {
        key;
        block;
        occurrences = 0;
        slots = [||];
        edges = Hashtbl.create 4;
        br_execs = 0;
        br_taken = 0;
        br_mispredict = 0;
        br_redirect = 0;
        fetches = 0;
        l1i_misses = 0;
        l2i_misses = 0;
        itlb_misses = 0;
        loads = 0;
        l1d_misses = 0;
        l2d_misses = 0;
        dtlb_misses = 0;
      }
    in
    Hashtbl.add t.table key n;
    n

let node_count t = Hashtbl.length t.table

let total_occurrences t =
  Hashtbl.fold (fun _ n acc -> acc + n.occurrences) t.table 0

let iter_nodes t f = Hashtbl.iter (fun _ n -> f n) t.table
let nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.table []

(* Sub-SFG sharing node records with the parent: stratification slices
   the graph without copying per-node histograms. [reduce] drops edges
   whose successor is absent from the kept set, so shared edge tables
   are safe downstream. *)
let restrict t ~keep =
  let sub = { k = t.k; table = Hashtbl.create 1024 } in
  Hashtbl.iter
    (fun key n -> if keep n then Hashtbl.add sub.table key n)
    t.table;
  sub

(* --- the reduced graph (Section 2.2) --- *)

let survives ~reduction n = n.occurrences / reduction > 0

type reduced = {
  survivors : node array;
  visits : int array;
  index : (int, int) Hashtbl.t;
}

let reduce t ~reduction =
  let survivors =
    Hashtbl.fold
      (fun _ n acc -> if survives ~reduction n then n :: acc else acc)
      t.table []
    |> List.sort (fun a b -> compare a.key b.key)
    |> Array.of_list
  in
  let index = Hashtbl.create (2 * Array.length survivors) in
  Array.iteri (fun i n -> Hashtbl.add index n.key i) survivors;
  {
    survivors;
    visits = Array.map (fun n -> n.occurrences / reduction) survivors;
    index;
  }

(* dense indices follow key order, so sorting by index sorts by key *)
let successors r i =
  Hashtbl.fold
    (fun succ count acc ->
      match Hashtbl.find_opt r.index succ with
      | Some j -> (j, !count) :: acc
      | None -> acc)
    r.survivors.(i).edges []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> Array.of_list

(* --- totals --- *)

type totals = {
  instructions : float;
  by_class : float array;
  br_execs : float;
  br_taken : float;
  br_mispredict : float;
  br_redirect : float;
  fetches : float;
  l1i_misses : float;
  l2i_misses : float;
  itlb_misses : float;
  loads : float;
  l1d_misses : float;
  l2d_misses : float;
  dtlb_misses : float;
}

(* Each total is summed in node-iteration order, so a weighted total
   is the same float on every call. *)
let totals ?(weight = fun _ -> 1.0) t =
  let weighted =
    List.rev
      (Hashtbl.fold
         (fun _ n acc ->
           let w = weight n in
           if w <> 0.0 then (w, n) :: acc else acc)
         t.table [])
  in
  let sum count =
    List.fold_left
      (fun acc (w, n) -> acc +. (w *. float_of_int (count n)))
      0.0 weighted
  in
  let by_class = Array.make Isa.Iclass.count 0.0 in
  (* a node contributes its occurrences once per slot *)
  let instructions =
    List.fold_left
      (fun acc (w, n) ->
        let m = w *. float_of_int n.occurrences in
        Array.fold_left
          (fun acc (s : slot) ->
            let ci = Isa.Iclass.index s.klass in
            by_class.(ci) <- by_class.(ci) +. m;
            acc +. m)
          acc n.slots)
      0.0 weighted
  in
  {
    instructions;
    by_class;
    br_execs = sum (fun n -> n.br_execs);
    br_taken = sum (fun n -> n.br_taken);
    br_mispredict = sum (fun n -> n.br_mispredict);
    br_redirect = sum (fun n -> n.br_redirect);
    fetches = sum (fun n -> n.fetches);
    l1i_misses = sum (fun n -> n.l1i_misses);
    l2i_misses = sum (fun n -> n.l2i_misses);
    itlb_misses = sum (fun n -> n.itlb_misses);
    loads = sum (fun n -> n.loads);
    l1d_misses = sum (fun n -> n.l1d_misses);
    l2d_misses = sum (fun n -> n.l2d_misses);
    dtlb_misses = sum (fun n -> n.dtlb_misses);
  }

let record_transition node ~succ_key =
  match Hashtbl.find node.edges succ_key with
  | r ->
    incr r;
    r
  | exception Not_found ->
    let r = ref 1 in
    Hashtbl.add node.edges succ_key r;
    r

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let taken_rate (n : node) = rate n.br_taken n.br_execs
let mispredict_rate (n : node) = rate n.br_mispredict n.br_execs
let redirect_rate (n : node) = rate n.br_redirect n.br_execs
let l1i_rate (n : node) = rate n.l1i_misses n.fetches
let l2i_rate (n : node) = rate n.l2i_misses n.fetches
let itlb_rate (n : node) = rate n.itlb_misses n.fetches
let l1d_rate (n : node) = rate n.l1d_misses n.loads
let l2d_rate (n : node) = rate n.l2d_misses n.loads
let dtlb_rate (n : node) = rate n.dtlb_misses n.loads

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
   the graph without copying per-node histograms.  Kernel compilation
   already drops edges whose successor is absent from the kept set, so
   shared edge tables are safe downstream. *)
let restrict t ~keep =
  let sub = { k = t.k; table = Hashtbl.create 1024 } in
  Hashtbl.iter
    (fun key n -> if keep n then Hashtbl.add sub.table key n)
    t.table;
  sub

let record_transition node ~succ_key =
  match Hashtbl.find_opt node.edges succ_key with
  | Some r -> incr r
  | None -> Hashtbl.add node.edges succ_key (ref 1)

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let taken_rate n = rate n.br_taken n.br_execs
let mispredict_rate n = rate n.br_mispredict n.br_execs
let redirect_rate n = rate n.br_redirect n.br_execs
let l1i_rate n = rate n.l1i_misses n.fetches
let l2i_rate n = rate n.l2i_misses n.fetches
let itlb_rate n = rate n.itlb_misses n.fetches
let l1d_rate n = rate n.l1d_misses n.loads
let l2d_rate n = rate n.l2d_misses n.loads
let dtlb_rate n = rate n.dtlb_misses n.loads

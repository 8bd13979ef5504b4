let version = 1

let bool_int b = if b then 1 else 0

let write_hist b h =
  let n = List.length (Stats.Histogram.support h) in
  Printf.bprintf b " %d" n;
  Stats.Histogram.iter h (fun v c -> Printf.bprintf b " %d %d" v c)

let write_config b (c : Config.Machine.t) =
  let cache (x : Config.Machine.cache) =
    Printf.bprintf b " %d %d %d %d" x.size_bytes x.assoc x.block_bytes
      x.hit_latency
  in
  let tlb (x : Config.Machine.tlb) =
    Printf.bprintf b " %d %d %d %d" x.entries x.tlb_assoc x.page_bytes
      x.miss_penalty
  in
  Printf.bprintf b "config";
  cache c.icache;
  cache c.dcache;
  cache c.l2;
  tlb c.itlb;
  tlb c.dtlb;
  Printf.bprintf b " %d" c.mem_latency;
  let bp = c.bpred in
  let kind_code =
    match bp.kind with
    | Config.Machine.Hybrid_local -> 0
    | Config.Machine.Gshare -> 1
    | Config.Machine.Bimodal_only -> 2
  in
  Printf.bprintf b " %d %d %d %d %d %d %d %d %d" kind_code bp.meta_entries
    bp.bimodal_entries bp.local_hist_entries bp.local_pattern_entries
    bp.local_hist_bits bp.btb_sets bp.btb_assoc bp.ras_entries;
  Printf.bprintf b " %d %d %d %d %d %d %d %d %d" c.mispredict_restart
    c.fetch_redirect_penalty c.ifq_size c.ruu_size c.lsq_size c.fetch_speed
    c.decode_width c.issue_width c.commit_width;
  Printf.bprintf b " %d %d %d %d %d" c.fu.int_alu c.fu.int_mult_div
    c.fu.mem_ports c.fu.fp_alu c.fu.fp_mult_div;
  Printf.bprintf b " %d\n" (bool_int c.in_order)

(* Nodes are emitted sorted by key and edges sorted by successor, so
   the rendering is canonical: equal profiles produce equal bytes
   regardless of hash-table history — what a content-addressed store
   and a byte-identity round-trip property both need. *)
let to_string (p : Stat_profile.t) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "statsim-profile %d\n" version;
  Printf.bprintf b "meta %d %d %d %d %d %d\n" p.k p.instructions
    (bool_int p.perfect_caches)
    (bool_int p.perfect_bpred)
    p.branches p.mispredicts;
  write_config b p.cfg;
  let nodes =
    List.sort
      (fun (a : Sfg.node) (c : Sfg.node) -> compare a.key c.key)
      (Sfg.nodes p.sfg)
  in
  List.iter
    (fun (n : Sfg.node) ->
      Printf.bprintf b "node %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n"
        n.key n.block n.occurrences n.br_execs n.br_taken n.br_mispredict
        n.br_redirect n.fetches n.l1i_misses n.l2i_misses n.itlb_misses
        n.loads n.l1d_misses n.l2d_misses n.dtlb_misses
        (Array.length n.slots);
      Array.iter
        (fun (s : Sfg.slot) ->
          Printf.bprintf b "slot %d %d" (Isa.Iclass.index s.klass) s.nsrcs;
          Array.iter (write_hist b) s.deps;
          write_hist b s.waw;
          write_hist b s.war;
          Printf.bprintf b "\n")
        n.slots;
      Hashtbl.fold (fun succ count acc -> (succ, !count) :: acc) n.edges []
      |> List.sort compare
      |> List.iter (fun (succ, count) ->
             Printf.bprintf b "edge %d %d\n" succ count))
    nodes;
  Buffer.contents b

let save p out = output_string out (to_string p)

(* --- loading --- *)

type cursor = { tokens : string array; mutable pos : int; line : int }

let fail_at line msg = failwith (Printf.sprintf "profile line %d: %s" line msg)

let next_int c =
  if c.pos >= Array.length c.tokens then fail_at c.line "missing field";
  let v =
    match int_of_string_opt c.tokens.(c.pos) with
    | Some v -> v
    | None -> fail_at c.line ("not an integer: " ^ c.tokens.(c.pos))
  in
  c.pos <- c.pos + 1;
  v

let next_bool c = next_int c <> 0

let read_hist c =
  let h = Stats.Histogram.create () in
  let n = next_int c in
  for _ = 1 to n do
    let v = next_int c in
    let count = next_int c in
    Stats.Histogram.add_many h v count
  done;
  h

let read_config c : Config.Machine.t =
  let cache () : Config.Machine.cache =
    let size_bytes = next_int c in
    let assoc = next_int c in
    let block_bytes = next_int c in
    let hit_latency = next_int c in
    { size_bytes; assoc; block_bytes; hit_latency }
  in
  let tlb () : Config.Machine.tlb =
    let entries = next_int c in
    let tlb_assoc = next_int c in
    let page_bytes = next_int c in
    let miss_penalty = next_int c in
    { entries; tlb_assoc; page_bytes; miss_penalty }
  in
  let icache = cache () in
  let dcache = cache () in
  let l2 = cache () in
  let itlb = tlb () in
  let dtlb = tlb () in
  let mem_latency = next_int c in
  let kind =
    match next_int c with
    | 0 -> Config.Machine.Hybrid_local
    | 1 -> Config.Machine.Gshare
    | 2 -> Config.Machine.Bimodal_only
    | n -> fail_at c.line (Printf.sprintf "unknown predictor kind %d" n)
  in
  let meta_entries = next_int c in
  let bimodal_entries = next_int c in
  let local_hist_entries = next_int c in
  let local_pattern_entries = next_int c in
  let local_hist_bits = next_int c in
  let btb_sets = next_int c in
  let btb_assoc = next_int c in
  let ras_entries = next_int c in
  let mispredict_restart = next_int c in
  let fetch_redirect_penalty = next_int c in
  let ifq_size = next_int c in
  let ruu_size = next_int c in
  let lsq_size = next_int c in
  let fetch_speed = next_int c in
  let decode_width = next_int c in
  let issue_width = next_int c in
  let commit_width = next_int c in
  let int_alu = next_int c in
  let int_mult_div = next_int c in
  let mem_ports = next_int c in
  let fp_alu = next_int c in
  let fp_mult_div = next_int c in
  let in_order = next_bool c in
  {
    icache;
    dcache;
    l2;
    itlb;
    dtlb;
    mem_latency;
    bpred =
      {
        kind;
        meta_entries;
        bimodal_entries;
        local_hist_entries;
        local_pattern_entries;
        local_hist_bits;
        btb_sets;
        btb_assoc;
        ras_entries;
      };
    mispredict_restart;
    fetch_redirect_penalty;
    ifq_size;
    ruu_size;
    lsq_size;
    fetch_speed;
    decode_width;
    issue_width;
    commit_width;
    fu = { int_alu; int_mult_div; mem_ports; fp_alu; fp_mult_div };
    in_order;
  }

let tokenize line lineno =
  let parts =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [] -> None
  | tag :: rest ->
    Some (tag, { tokens = Array.of_list rest; pos = 0; line = lineno })

(* [next_line] yields successive lines and raises [End_of_file] when
   exhausted — one parser for channels and in-memory strings. *)
let load_from next_line =
  let lineno = ref 0 in
  (* the next line's record, numbered from 1 *)
  let read_record () =
    let line = next_line () in
    incr lineno;
    tokenize line !lineno
  in
  (* header *)
  (match read_record () with
  | Some ("statsim-profile", c) ->
    let v = next_int c in
    if v <> version then
      fail_at !lineno (Printf.sprintf "unsupported version %d" v)
  | _ -> fail_at !lineno "expected statsim-profile header");
  let k, instructions, perfect_caches, perfect_bpred, branches, mispredicts =
    match read_record () with
    | Some ("meta", c) ->
      let k = next_int c in
      let n = next_int c in
      let pc = next_bool c in
      let pb = next_bool c in
      let br = next_int c in
      let mis = next_int c in
      (k, n, pc, pb, br, mis)
    | _ -> fail_at !lineno "expected meta line"
  in
  let cfg =
    match read_record () with
    | Some ("config", c) -> read_config c
    | _ -> fail_at !lineno "expected config line"
  in
  let sfg = Sfg.create ~k in
  let cur_node : Sfg.node option ref = ref None in
  let pending_slots = ref [] in
  let flush_slots () =
    match !cur_node with
    | None -> ()
    | Some n ->
      n.slots <- Array.of_list (List.rev !pending_slots);
      pending_slots := []
  in
  (try
     while true do
       match read_record () with
       | None -> ()
       | Some ("node", c) ->
         flush_slots ();
         let key = next_int c in
         let block = next_int c in
         let n = Sfg.find_or_add sfg ~key ~block in
         n.occurrences <- next_int c;
         n.br_execs <- next_int c;
         n.br_taken <- next_int c;
         n.br_mispredict <- next_int c;
         n.br_redirect <- next_int c;
         n.fetches <- next_int c;
         n.l1i_misses <- next_int c;
         n.l2i_misses <- next_int c;
         n.itlb_misses <- next_int c;
         n.loads <- next_int c;
         n.l1d_misses <- next_int c;
         n.l2d_misses <- next_int c;
         n.dtlb_misses <- next_int c;
         ignore (next_int c) (* slot count, informative *);
         cur_node := Some n
       | Some ("slot", c) ->
         let klass = Isa.Iclass.of_index (next_int c) in
         let nsrcs = next_int c in
         let deps = Array.init nsrcs (fun _ -> read_hist c) in
         let waw = read_hist c in
         let war = read_hist c in
         pending_slots := { Sfg.klass; nsrcs; deps; waw; war } :: !pending_slots
       | Some ("edge", c) -> (
         let succ = next_int c in
         let count = next_int c in
         match !cur_node with
         | None -> fail_at !lineno "edge before any node"
         | Some n -> Hashtbl.replace n.edges succ (ref count))
       | Some (tag, _) -> fail_at !lineno ("unknown record " ^ tag)
     done
   with End_of_file -> ());
  flush_slots ();
  {
    Stat_profile.sfg;
    k;
    cfg;
    instructions;
    perfect_caches;
    perfect_bpred;
    branches;
    mispredicts;
  }

let load ic = load_from (fun () -> input_line ic)

let of_string s =
  let rest = ref (String.split_on_char '\n' s) in
  load_from (fun () ->
      match !rest with
      | [] -> raise End_of_file
      | line :: tl ->
        rest := tl;
        line)

(* Stage into a temp file in the destination directory and rename, so a
   crash mid-write can never leave a truncated, unloadable profile at
   the destination path. *)
let save_file p path =
  let tmp =
    Filename.temp_file
      ~temp_dir:(Filename.dirname path)
      "statsim-profile" ".tmp"
  in
  match
    let oc = open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save p oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load ic)

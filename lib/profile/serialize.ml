let version = 2

(* --- the decimal line codec, shared with Kernel.Plan --- *)

module Text = struct
  let rec add_digits b n =
    if n >= 10 then add_digits b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

  let add_field b n =
    Buffer.add_char b ' ';
    if n >= 0 then add_digits b n
    else if n = min_int then Buffer.add_string b (string_of_int n)
    else begin
      Buffer.add_char b '-';
      add_digits b (-n)
    end

  (* [line] counts the lines asked for, so running out of input reports
     the number of the line that is missing; the current line is
     s.[pos .. eol), its last token s.[tok .. pos) *)
  type cursor = {
    s : string;
    mutable line : int;
    mutable next : int;
    mutable pos : int;
    mutable eol : int;
    mutable tok : int;
  }

  let cursor s = { s; line = 0; next = 0; pos = 0; eol = 0; tok = 0 }
  let line c = c.line

  let next_line c =
    c.line <- c.line + 1;
    let len = String.length c.s in
    if c.next > len then false
    else begin
      let eol =
        match String.index_from c.s c.next '\n' with
        | i -> i
        | exception Not_found -> len
      in
      c.pos <- c.next;
      c.eol <- eol;
      c.next <- eol + 1;
      true
    end

  let token c =
    let s = c.s and eol = c.eol in
    let p = ref c.pos in
    while !p < eol && String.unsafe_get s !p = ' ' do
      incr p
    done;
    c.tok <- !p;
    while !p < eol && String.unsafe_get s !p <> ' ' do
      incr p
    done;
    c.pos <- !p;
    c.tok < !p

  let rec same s i t j =
    j = String.length t
    || (String.unsafe_get s i = String.unsafe_get t j && same s (i + 1) t (j + 1))

  let token_is c t = c.pos - c.tok = String.length t && same c.s c.tok t 0

  let token_string c = String.sub c.s c.tok (c.pos - c.tok)
  let rest c = String.sub c.s c.pos (c.eol - c.pos)
  let max_tokens c = (c.eol - c.pos + 1) / 2

  exception Not_int

  (* the value of the digits s.[k .. j) after [v], or -1 at a non-digit *)
  let rec digits s k j v =
    if k = j then v
    else
      let d = Char.code (String.unsafe_get s k) - 48 in
      if d >= 0 && d <= 9 then digits s (k + 1) j ((v * 10) + d) else -1

  (* Up to 18 decimal digits cannot overflow and mean the same to
     [int_of_string], so they are read in place; any other token (a
     radix prefix, underscores, a plus sign, 19 digits) goes through
     [int_of_string] itself. *)
  let token_int c =
    let s = c.s and j = c.pos in
    let i = if String.unsafe_get s c.tok = '-' then c.tok + 1 else c.tok in
    let v = if j > i && j - i <= 18 then digits s i j 0 else -1 in
    if v >= 0 then if i > c.tok then -v else v
    else
      match int_of_string_opt (token_string c) with
      | Some v -> v
      | None -> raise Not_int
end

let span_encode = Telemetry.span "profile.encode"
let span_decode = Telemetry.span "profile.decode"
let bool_int b = if b then 1 else 0
let field = Text.add_field

let write_hist b h =
  let n = Stats.Histogram.support_size h in
  field b n;
  if n > 0 then
    Stats.Histogram.iter h (fun v c ->
        field b v;
        field b c)

(* Nodes are emitted sorted by key and edges sorted by successor, so
   the rendering is canonical: equal profiles produce equal bytes
   regardless of hash-table history — what a content-addressed store
   and a byte-identity round-trip property both need. *)
let to_string (p : Stat_profile.t) =
  Telemetry.time span_encode @@ fun () ->
  let b = Buffer.create 65536 in
  Buffer.add_string b "statsim-profile";
  field b version;
  Buffer.add_string b "\nmeta";
  List.iter (field b)
    [
      p.k;
      p.instructions;
      bool_int p.perfect_caches;
      bool_int p.perfect_bpred;
      p.branches;
      p.mispredicts;
    ];
  Buffer.add_string b "\nmachine ";
  Buffer.add_string b p.machine;
  Buffer.add_char b '\n';
  let nodes =
    List.sort
      (fun (a : Sfg.node) (c : Sfg.node) -> Int.compare a.key c.key)
      (Sfg.nodes p.sfg)
  in
  List.iter
    (fun (n : Sfg.node) ->
      Buffer.add_string b "node";
      field b n.key;
      field b n.block;
      field b n.occurrences;
      field b n.br_execs;
      field b n.br_taken;
      field b n.br_mispredict;
      field b n.br_redirect;
      field b n.fetches;
      field b n.l1i_misses;
      field b n.l2i_misses;
      field b n.itlb_misses;
      field b n.loads;
      field b n.l1d_misses;
      field b n.l2d_misses;
      field b n.dtlb_misses;
      field b (Array.length n.slots);
      Buffer.add_char b '\n';
      Array.iter
        (fun (s : Sfg.slot) ->
          Buffer.add_string b "slot";
          field b (Isa.Iclass.index s.klass);
          field b s.nsrcs;
          Array.iter (write_hist b) s.deps;
          write_hist b s.waw;
          write_hist b s.war;
          Buffer.add_char b '\n')
        n.slots;
      Hashtbl.fold (fun succ count acc -> (succ, !count) :: acc) n.edges []
      |> List.sort (fun (a, _) (c, _) -> Int.compare a c)
      |> List.iter (fun (succ, count) ->
             Buffer.add_string b "edge";
             field b succ;
             field b count;
             Buffer.add_char b '\n'))
    nodes;
  Buffer.contents b

let save p out = output_string out (to_string p)

(* --- loading --- *)

let fail_at c msg =
  failwith (Printf.sprintf "profile line %d: %s" (Text.line c) msg)

let next_int c =
  if not (Text.token c) then fail_at c "missing field";
  match Text.token_int c with
  | v -> v
  | exception Text.Not_int -> fail_at c ("not an integer: " ^ Text.token_string c)

let next_bool c = next_int c <> 0

let next_count c =
  let v = next_int c in
  if v < 0 then fail_at c (Printf.sprintf "negative count %d" v);
  v

let read_hist c =
  let h = Stats.Histogram.create () in
  let n = next_count c in
  for _ = 1 to n do
    let v = next_int c in
    let count = next_count c in
    Stats.Histogram.add_many h v count
  done;
  h

let expect c tag what =
  if not (Text.next_line c && Text.token c && Text.token_is c tag) then
    fail_at c ("expected " ^ what)

(* The header, then the meta line up to its instruction count *)
let read_meta c =
  expect c "statsim-profile" "statsim-profile header";
  let v = next_int c in
  if v <> version then fail_at c (Printf.sprintf "unsupported version %d" v);
  expect c "meta" "meta line";
  let k = next_int c in
  let instructions = next_count c in
  (k, instructions)

let instructions s = snd (read_meta (Text.cursor s))

(* One pass over the string: each line is read in place through the
   cursor, and blank lines are skipped between records. *)
let of_string s =
  Telemetry.time span_decode @@ fun () ->
  let c = Text.cursor s in
  let k, instructions = read_meta c in
  let perfect_caches = next_bool c in
  let perfect_bpred = next_bool c in
  let branches = next_count c in
  let mispredicts = next_count c in
  if k < 0 || k > Sfg.max_k then
    fail_at c (Printf.sprintf "k %d out of [0, %d]" k Sfg.max_k);
  expect c "machine" "machine line";
  if not (Text.token c) then fail_at c "missing machine";
  let machine = Text.token_string c in
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
  while Text.next_line c do
    if not (Text.token c) then ()
    else if Text.token_is c "node" then begin
      flush_slots ();
      let key = next_int c in
      let block = next_int c in
      let n = Sfg.find_or_add sfg ~key ~block in
      n.occurrences <- next_count c;
      n.br_execs <- next_count c;
      n.br_taken <- next_count c;
      n.br_mispredict <- next_count c;
      n.br_redirect <- next_count c;
      n.fetches <- next_count c;
      n.l1i_misses <- next_count c;
      n.l2i_misses <- next_count c;
      n.itlb_misses <- next_count c;
      n.loads <- next_count c;
      n.l1d_misses <- next_count c;
      n.l2d_misses <- next_count c;
      n.dtlb_misses <- next_count c;
      ignore (next_int c) (* slot count, informative *);
      cur_node := Some n
    end
    else if Text.token_is c "slot" then begin
      let index = next_int c in
      if index < 0 || index >= Isa.Iclass.count then
        fail_at c (Printf.sprintf "unknown instruction class %d" index);
      let nsrcs = next_count c in
      (* the operands and the WAW and WAR distances must fit one
         synthetic instruction; the bound also keeps the histogram
         array small. Written without adding to [nsrcs], which may be
         as large as [max_int]. *)
      if nsrcs > Sfg.max_deps - 2 then
        fail_at c
          (Printf.sprintf "operand count %d above %d" nsrcs (Sfg.max_deps - 2));
      let deps = Array.init nsrcs (fun _ -> read_hist c) in
      let waw = read_hist c in
      let war = read_hist c in
      pending_slots :=
        { Sfg.klass = Isa.Iclass.of_index index; nsrcs; deps; waw; war }
        :: !pending_slots
    end
    else if Text.token_is c "edge" then begin
      let succ = next_int c in
      let count = next_count c in
      match !cur_node with
      | None -> fail_at c "edge before any node"
      | Some n -> Hashtbl.replace n.edges succ (ref count)
    end
    else fail_at c ("unknown record " ^ Text.token_string c)
  done;
  flush_slots ();
  {
    Stat_profile.sfg;
    k;
    machine;
    instructions;
    perfect_caches;
    perfect_bpred;
    branches;
    mispredicts;
  }

let load ic = of_string (In_channel.input_all ic)

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

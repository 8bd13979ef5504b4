(* code word: bits 0-10 the feed word, 11-13 the fetch outcome, 14-16
   the load outcome, 17+ the block *)
let dep_bits = 10
let dep_mask = (1 lsl dep_bits) - 1

let[@inline] code ~feed ~fetch ~load ~block =
  feed lor (fetch lsl 11) lor (load lsl 14) lor (block lsl 17)

let[@inline] feed_word c = c land 0x7FF
let[@inline] fetch_outcome c = (c lsr 11) land 7
let[@inline] load_outcome c = (c lsr 14) land 7
let[@inline] block c = c asr 17
let[@inline] dep w j = (w lsr (dep_bits * j)) land dep_mask

type t = {
  wrong_path_locality : bool;
  code : int array;  (* the trace's code words *)
  deps : int array;  (* the trace's dependency words *)
  (* per position, whether it has paid its pre-assigned miss flags:
     bit 0 for the fetch, bit 1 for the load *)
  paid : Bytes.t;
  (* access words per outcome bits, from Cache.Hierarchy *)
  ifetch : int array;
  load : int array;
}

let create ?(wrong_path_locality = false) cfg ~code ~deps =
  let access instruction =
    Array.init 8 (Cache.Hierarchy.access_of_outcome cfg ~instruction)
  in
  {
    wrong_path_locality;
    code;
    deps;
    paid = Bytes.make (Array.length code) '\000';
    ifetch = access true;
    load = access false;
  }

(* The reads index the trace with bounds checks: a negative position
   raises [Invalid_argument], and only [fetch] answers past the end. *)
let[@inline] fetch t i =
  if i < Array.length t.code then feed_word t.code.(i) else Feed.end_of_stream

let[@inline] producer t i j =
  let d = dep t.deps.(i) j in
  if d > 0 then i - d else -1

(* A correct-path access pays the position's flags the first time and
   hits afterwards (a re-fetch after a squash). A wrong-path access
   hits, or with [wrong_path_locality] pays the flags without using up
   the correct-path charge. [i] was just read from [code], which is as
   long as [paid]. *)
let[@inline] charge t ~bit ~wrong_path access outcome i =
  if wrong_path && t.wrong_path_locality then Array.unsafe_get access outcome
  else begin
    let paid = Char.code (Bytes.unsafe_get t.paid i) in
    if wrong_path || paid land bit <> 0 then Array.unsafe_get access 0
    else begin
      Bytes.unsafe_set t.paid i (Char.unsafe_chr (paid lor bit));
      Array.unsafe_get access outcome
    end
  end

let[@inline] ifetch_access t i ~wrong_path =
  charge t ~bit:1 ~wrong_path t.ifetch (fetch_outcome t.code.(i)) i

let[@inline] load_access t i ~wrong_path =
  charge t ~bit:2 ~wrong_path t.load (load_outcome t.code.(i)) i

let[@inline] store_access t = Array.unsafe_get t.load 0

(* Feed word: bits 0-3 class index, bit 4 branch, bit 5 taken, bit 6
   mispredicted, bit 7 fetch redirection, bits 8+ producer count. *)
let end_of_stream = -1
let branch_bit = 0x10
let taken_bit = 0x20
let mispredict_bit = 0x40
let redirect_bit = 0x80

let[@inline] word ~klass ~branch ~producers =
  klass lor branch lor (producers lsl 8)

let[@inline] branch_bits ~taken ~mispredict ~redirect =
  branch_bit
  lor (if taken then taken_bit else 0)
  lor (if mispredict then mispredict_bit else 0)
  lor if redirect then redirect_bit else 0

let[@inline] klass w = w land 0xF
let[@inline] is_branch w = w land branch_bit <> 0
let[@inline] taken w = w land taken_bit <> 0
let[@inline] mispredicted w = w land mispredict_bit <> 0

let[@inline] redirected w = w land redirect_bit <> 0

let[@inline] producers w = w lsr 8

(* the pipeline revisits positions only while they can still be in
   flight (a squash rewinds to just past the resolving branch), so the
   window must cover everything the front end may have run ahead:
   bounded by the RUU, the fetch queue and one fetch burst *)
let rewind_window (cfg : Config.Machine.t) =
  let need =
    cfg.ruu_size + cfg.ifq_size + (cfg.decode_width * cfg.fetch_speed) + 64
  in
  let w = ref 1 in
  while !w < need do
    w := 2 * !w
  done;
  !w

module Ring = struct
  type t = {
    produce : int -> bool;
    window : int;
    mask : int;  (* [window - 1] *)
    mutable oldest : int;  (* positions [oldest, produced) are held *)
    mutable produced : int;
    mutable finished : bool;
  }

  let create ~window produce =
    let w = ref 1 in
    while !w < window do
      w := 2 * !w
    done;
    {
      produce;
      window = !w;
      mask = !w - 1;
      oldest = 0;
      produced = 0;
      finished = false;
    }

  let window t = t.window

  let pull t =
    if t.produce (t.produced land t.mask) then begin
      t.produced <- t.produced + 1;
      if t.produced > t.window then t.oldest <- t.produced - t.window
    end
    else t.finished <- true

  (* The slow paths pull, or say why a position cannot be read. *)
  let mem_pull t i =
    if i < 0 then invalid_arg "Feed.Ring: negative index";
    while t.produced <= i && not t.finished do
      pull t
    done;
    i < t.produced

  let index_pull t i =
    if not (mem_pull t i) then invalid_arg "Feed.Ring.index: index past the end"
    else if i < t.oldest then
      invalid_arg "Feed.Ring.index: index slid out of window"
    else i land t.mask

  (* The fast paths, inlined into the feed: a position already pulled
     and still held. The window is a power of two, so the slot needs no
     division. *)
  let[@inline] mem t i = (i >= 0 && i < t.produced) || mem_pull t i

  let[@inline] index t i =
    if i >= t.oldest && i < t.produced then i land t.mask else index_pull t i
end

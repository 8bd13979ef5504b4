type branch_summary = {
  taken : bool;
  resolution : Branch.Predictor.resolution;
}

type fetched = {
  seq : int;
  pc : int;
  klass : Isa.Iclass.t;
  mem_addr : int;  (* effective address for EDS memory ops; -1 otherwise *)
  producers : int array;
  branch : branch_summary option;
}

module type S = sig
  type t

  val fetch : t -> int -> fetched option

  val ifetch_access :
    t -> fetched -> wrong_path:bool -> Cache.Hierarchy.outcome * int

  val load_access :
    t -> fetched -> wrong_path:bool -> Cache.Hierarchy.outcome * int

  val on_commit_store : t -> fetched -> Cache.Hierarchy.outcome
  val on_dispatch : t -> fetched -> wrong_path:bool -> unit
end

(* the pipeline revisits positions only while they can still be in
   flight (a squash rewinds to just past the resolving branch), so the
   window must cover everything the front end may have run ahead:
   bounded by the RUU, the fetch queue and one fetch burst *)
let rewind_window (cfg : Config.Machine.t) =
  max 16384
    (cfg.ruu_size + cfg.ifq_size + (cfg.decode_width * cfg.fetch_speed) + 64)

module Ring = struct
  type 'a t = {
    produce : int -> 'a option;
    window : int;
    mutable buf : 'a array;  (* allocated by the first pull, filled with it *)
    mutable oldest : int;  (* positions [oldest, produced) are held *)
    mutable produced : int;
    mutable finished : bool;
  }

  let create ~window produce =
    { produce; window; buf = [||]; oldest = 0; produced = 0; finished = false }

  let of_array a =
    let n = Array.length a in
    {
      produce = (fun _ -> None);
      window = n;
      buf = a;
      oldest = 0;
      produced = n;
      finished = true;
    }

  let[@inline] slot t i = if i < t.window then i else i mod t.window

  let pull t =
    let s = slot t t.produced in
    match t.produce s with
    | None -> t.finished <- true
    | Some x ->
      if t.produced = 0 then t.buf <- Array.make t.window x
      else t.buf.(s) <- x;
      t.produced <- t.produced + 1;
      if t.produced > t.window then t.oldest <- t.produced - t.window

  (* The slow paths pull, or say why a position cannot be read. *)
  let mem_pull t i =
    if i < 0 then invalid_arg "Feed.Ring: negative index";
    while t.produced <= i && not t.finished do
      pull t
    done;
    i < t.produced

  let get_pull t i =
    if not (mem_pull t i) then invalid_arg "Feed.Ring.get: index past the end"
    else if i < t.oldest then
      invalid_arg "Feed.Ring.get: index slid out of window"
    else t.buf.(slot t i)

  (* The fast paths, inlined into the feeds: a position already pulled
     and still held. Its slot is below the window and [buf] holds
     [window] elements, so the read needs no bounds check. *)
  let[@inline] mem t i = (i >= 0 && i < t.produced) || mem_pull t i

  let[@inline] get t i =
    if i >= t.oldest && i < t.produced then Array.unsafe_get t.buf (slot t i)
    else get_pull t i
end

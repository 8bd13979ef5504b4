type mode =
  | Immediate
  | Delayed of { fifo_size : int; squash_refetch : bool }

(* squash_refetch:false models the trace-driven reference simulator in
   this repository, whose wrong-path branch predictions are memoized at
   first fetch and reused after the squash; set it true for the paper's
   literal squash-and-refill semantics (a live machine re-predicting
   re-fetched instructions). *)
let default_delayed (cfg : Config.Machine.t) =
  Delayed { fifo_size = cfg.ifq_size; squash_refetch = false }

(* The FIFO is a ring of [size] positions held in parallel arrays. Each
   position keeps its resolution as an int ([no_branch] for a
   non-branch); only a branch stores its tag and instruction, and, under
   [squash_refetch] (the one mode that squashes), the RAS snapshot taken
   just before its lookup, used to rewind speculative RAS damage when a
   squash redoes lookups. The tag, instruction and snapshot arrays are
   allocated by the first branch that needs them, which fills them. *)
let no_branch = -1

let code_of_resolution = function
  | Branch.Predictor.Correct -> 0
  | Branch.Predictor.Fetch_redirect -> 1
  | Branch.Predictor.Mispredict -> 2

let resolution_of_code = function
  | 0 -> Branch.Predictor.Correct
  | 1 -> Branch.Predictor.Fetch_redirect
  | _ -> Branch.Predictor.Mispredict

type 'a t = {
  pred : Branch.Predictor.t;
  mode : mode;
  squash_refetch : bool;
  on_result : 'a -> Isa.Dyn_inst.t -> Branch.Predictor.resolution -> unit;
  size : int;  (* 1 for Immediate, which never queues *)
  res : int array;
  mutable tags : 'a array;
  mutable insts : Isa.Dyn_inst.t array;
  mutable ras_before : Branch.Ras.t array;
  mutable head : int;
  mutable count : int;
  mutable mispredicts : int;
  mutable branches : int;
}

let create cfg mode ~on_result =
  let size, squash_refetch =
    match mode with
    | Immediate -> (1, false)
    | Delayed { fifo_size; squash_refetch } -> (fifo_size, squash_refetch)
  in
  if size <= 0 then invalid_arg "Branch_profiler.create: empty FIFO";
  {
    pred = Branch.Predictor.create cfg.Config.Machine.bpred;
    mode;
    squash_refetch;
    on_result;
    size;
    res = Array.make size no_branch;
    tags = [||];
    insts = [||];
    ras_before = [||];
    head = 0;
    count = 0;
    mispredicts = 0;
    branches = 0;
  }

(* the ring position [i] places past [head]; [i < 2 * size] always *)
let[@inline] wrap t i = if i >= t.size then i - t.size else i

let deliver t tag inst r =
  t.branches <- t.branches + 1;
  if r = Branch.Predictor.Mispredict then t.mispredicts <- t.mispredicts + 1;
  t.on_result tag inst r

(* Redo the lookups of every branch still in the FIFO: they modeled
   wrong-path fetches and are re-fetched after the squash. The RAS is
   rewound to its state before the first in-FIFO lookup. *)
let squash_redo t =
  let first = ref (-1) and i = ref 0 in
  while !first < 0 && !i < t.count do
    let j = wrap t (t.head + !i) in
    if t.res.(j) <> no_branch then first := j;
    incr i
  done;
  if !first >= 0 then Branch.Predictor.ras_restore t.pred t.ras_before.(!first);
  for i = 0 to t.count - 1 do
    let j = wrap t (t.head + i) in
    if t.res.(j) <> no_branch then
      let inst = t.insts.(j) in
      match inst.branch with
      | Some b ->
        t.res.(j) <-
          code_of_resolution
            (Branch.Predictor.lookup t.pred ~pc:inst.pc ~branch:b)
      | None -> assert false
  done

(* the FIFO is not empty *)
let pop_oldest t =
  let j = t.head in
  t.head <- wrap t (j + 1);
  t.count <- t.count - 1;
  let code = t.res.(j) in
  if code <> no_branch then begin
    let inst = t.insts.(j) in
    (match inst.branch with
    | Some b -> Branch.Predictor.update t.pred ~pc:inst.pc ~branch:b
    | None -> assert false);
    let r = resolution_of_code code in
    deliver t t.tags.(j) inst r;
    if t.squash_refetch && r = Branch.Predictor.Mispredict then squash_redo t
  end

let push t tag (inst : Isa.Dyn_inst.t) =
  match t.mode with
  | Immediate -> (
    match inst.branch with
    | None -> ()
    | Some b ->
      let r = Branch.Predictor.lookup t.pred ~pc:inst.pc ~branch:b in
      Branch.Predictor.update t.pred ~pc:inst.pc ~branch:b;
      deliver t tag inst r)
  | Delayed _ ->
    if t.count = t.size then pop_oldest t;
    let j = wrap t (t.head + t.count) in
    (match inst.branch with
    | None -> t.res.(j) <- no_branch
    | Some b ->
      if Array.length t.tags = 0 then begin
        t.tags <- Array.make t.size tag;
        t.insts <- Array.make t.size inst
      end;
      if t.squash_refetch then begin
        let ras = Branch.Predictor.ras_copy t.pred in
        if Array.length t.ras_before = 0 then
          t.ras_before <- Array.make t.size ras;
        t.ras_before.(j) <- ras
      end;
      t.res.(j) <-
        code_of_resolution (Branch.Predictor.lookup t.pred ~pc:inst.pc ~branch:b);
      t.tags.(j) <- tag;
      t.insts.(j) <- inst);
    t.count <- t.count + 1

let flush t =
  while t.count > 0 do
    pop_oldest t
  done

let mispredicts t = t.mispredicts
let branches t = t.branches

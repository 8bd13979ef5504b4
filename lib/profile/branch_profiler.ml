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

type 'a entry = {
  tag : 'a;
  inst : Isa.Dyn_inst.t;
  mutable resolution : Branch.Predictor.resolution option;
  ras_before : Branch.Ras.t option;
      (* RAS snapshot taken just before this branch's lookup, used to
         rewind speculative RAS damage when a squash redoes lookups;
         taken only under [squash_refetch], the one mode that squashes *)
}

type 'a t = {
  pred : Branch.Predictor.t;
  mode : mode;
  on_result : 'a -> Isa.Dyn_inst.t -> Branch.Predictor.resolution -> unit;
  fifo : 'a entry option array;  (* ring buffer; length 1 for Immediate *)
  mutable head : int;
  mutable count : int;
  mutable mispredicts : int;
  mutable branches : int;
}

let create cfg mode ~on_result =
  let size = match mode with Immediate -> 1 | Delayed { fifo_size; _ } -> fifo_size in
  if size <= 0 then invalid_arg "Branch_profiler.create: empty FIFO";
  {
    pred = Branch.Predictor.create cfg.Config.Machine.bpred;
    mode;
    on_result;
    fifo = Array.make size None;
    head = 0;
    count = 0;
    mispredicts = 0;
    branches = 0;
  }

let deliver t (e : _ entry) r =
  t.branches <- t.branches + 1;
  if r = Branch.Predictor.Mispredict then t.mispredicts <- t.mispredicts + 1;
  t.on_result e.tag e.inst r

(* Redo the lookups of every branch still in the FIFO: they modeled
   wrong-path fetches and are re-fetched after the squash. The RAS is
   rewound to its state before the first in-FIFO lookup. *)
let squash_redo t =
  let first_ras = ref None in
  for i = 0 to t.count - 1 do
    match t.fifo.((t.head + i) mod Array.length t.fifo) with
    | Some e when e.inst.branch <> None ->
      if !first_ras = None then first_ras := e.ras_before
    | Some _ | None -> ()
  done;
  (match !first_ras with
  | Some ras -> Branch.Predictor.ras_restore t.pred ras
  | None -> ());
  for i = 0 to t.count - 1 do
    match t.fifo.((t.head + i) mod Array.length t.fifo) with
    | Some e -> (
      match e.inst.branch with
      | Some b ->
        e.resolution <-
          Some (Branch.Predictor.lookup t.pred ~pc:e.inst.pc ~branch:b)
      | None -> ())
    | None -> ()
  done

let pop_oldest t =
  match t.fifo.(t.head) with
  | None -> ()
  | Some e ->
    t.fifo.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.fifo;
    t.count <- t.count - 1;
    (match (e.inst.branch, e.resolution) with
    | Some b, Some r ->
      Branch.Predictor.update t.pred ~pc:e.inst.pc ~branch:b;
      deliver t e r;
      let squash =
        match t.mode with
        | Delayed { squash_refetch = true; _ } -> r = Branch.Predictor.Mispredict
        | Delayed { squash_refetch = false; _ } | Immediate -> false
      in
      if squash then squash_redo t
    | None, None -> ()
    | Some _, None | None, Some _ -> assert false)

let push t tag inst =
  match t.mode with
  | Immediate -> (
    match inst.Isa.Dyn_inst.branch with
    | None -> ()
    | Some b ->
      let r = Branch.Predictor.lookup t.pred ~pc:inst.pc ~branch:b in
      Branch.Predictor.update t.pred ~pc:inst.pc ~branch:b;
      deliver t { tag; inst; resolution = Some r; ras_before = None } r)
  | Delayed { squash_refetch; _ } ->
    if t.count = Array.length t.fifo then pop_oldest t;
    let entry =
      match inst.Isa.Dyn_inst.branch with
      | None -> { tag; inst; resolution = None; ras_before = None }
      | Some b ->
        let ras_before =
          if squash_refetch then Some (Branch.Predictor.ras_copy t.pred)
          else None
        in
        let r = Branch.Predictor.lookup t.pred ~pc:inst.pc ~branch:b in
        { tag; inst; resolution = Some r; ras_before }
    in
    t.fifo.((t.head + t.count) mod Array.length t.fifo) <- Some entry;
    t.count <- t.count + 1

let flush t =
  while t.count > 0 do
    pop_oldest t
  done

let mispredicts t = t.mispredicts
let branches t = t.branches

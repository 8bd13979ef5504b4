(* The traced run's span recorder. Spans are recorded from the
   benchmark's own code around its calls into each layer, kept in
   memory, and written out when the run ends. *)

type span = {
  id : int;
  name : string;
  op : int;  (** index of the timed op the span belongs to, -1 outside *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable done_ : span list;  (* reverse completion order *)
  mutable open_ : int list;  (* innermost first *)
  mutable next : int;
  mutable op : int;
}

let create () = { done_ = []; open_ = []; next = 0; op = -1 }
let set_op t op = t.op <- op

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = Probe.now_ns () in
  let close () =
    let stop_ns = Probe.now_ns () in
    t.open_ <- List.tl t.open_;
    t.done_ <- { id; name; op = t.op; parent; start_ns; stop_ns } :: t.done_
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Attach a span measured elsewhere (e.g. a server-side span reported in
   a reply's trace tree). *)
let add t ~name ~parent ~start_ns ~stop_ns =
  let id = t.next in
  t.next <- id + 1;
  t.done_ <- { id; name; op = t.op; parent; start_ns; stop_ns } :: t.done_;
  id

let spans t = List.rev t.done_
let dur_ns s = s.stop_ns - s.start_ns

(* The spans of timed ops whose name satisfies [keep], in completion
   order. *)
let matching t keep = List.filter (fun (s : span) -> s.op >= 0 && keep s.name) (spans t)

let durations l = Array.of_list (List.map (fun s -> float_of_int (dur_ns s)) l)

(* For op ids 0 .. n-1, the summed duration of their spans in [l], in
   ns; nan for an op without one. *)
let sum_by_op ~n l =
  let acc = Array.make n nan in
  List.iter
    (fun (s : span) ->
      let d = float_of_int (dur_ns s) in
      acc.(s.op) <- (if Float.is_nan acc.(s.op) then d else acc.(s.op) +. d))
    l;
  acc

(* Self time: a span's duration minus the part of it covered by its
   children. Children of one parent never overlap here (one thread),
   so the covered part is the sum of their durations. *)
let self_ns spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s + Option.value (Hashtbl.find_opt child s.parent) ~default:0))
    spans;
  List.map
    (fun s -> (s, dur_ns s - Option.value (Hashtbl.find_opt child s.id) ~default:0))
    spans

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"name":%S,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d}|} s.id
    s.name s.op s.parent s.start_ns s.stop_ns

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        (spans t))

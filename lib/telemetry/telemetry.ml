(* Process-wide metric registry. Fast path (disabled): one Atomic.get.
   Fast path (enabled): Atomic.fetch_and_add on preallocated cells, a
   CAS loop only for span maxima. The mutex below guards interning and
   snapshotting, never updates. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let num_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then
      string_of_int (int_of_float v)
    else Printf.sprintf "%.12g" v

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v ->
      if Float.is_finite v then Buffer.add_string buf (num_repr v)
      else Buffer.add_string buf "null"
    | Str s -> escape buf s
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  exception Bad of int * string

  (* Numeric literals have no legitimate reason to approach this; the
     cap stops float_of_string from chewing on megabyte "numbers". *)
  let max_number_chars = 512

  let of_string ?(max_depth = 1000) ?(max_string = 1 lsl 24) s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if Buffer.length buf > max_string then
          fail (Printf.sprintf "string longer than %d bytes" max_string);
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
            Buffer.add_char buf e;
            go ()
          | 'n' ->
            Buffer.add_char buf '\n';
            go ()
          | 't' ->
            Buffer.add_char buf '\t';
            go ()
          | 'r' ->
            Buffer.add_char buf '\r';
            go ()
          | 'b' ->
            Buffer.add_char buf '\b';
            go ()
          | 'f' ->
            Buffer.add_char buf '\012';
            go ()
          | 'u' ->
            if !pos + 4 > n then fail "short \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> Buffer.add_char buf (Char.chr (code land 0xff))
            | None -> fail "bad \\u escape");
            go ()
          | _ -> fail "bad escape")
        | c ->
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      if !pos - start > max_number_chars then
        fail (Printf.sprintf "number longer than %d chars" max_number_chars);
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        if depth >= max_depth then
          fail (Printf.sprintf "nesting deeper than %d" max_depth);
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | Some '[' ->
        if depth >= max_depth then
          fail (Printf.sprintf "nesting deeper than %d" max_depth);
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elements [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_num = function Num v -> Some v | _ -> None
  let to_str = function Str s -> Some s | _ -> None
end

(* --- enable flag --- *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "REPRO_TELEMETRY" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- instruments --- *)

type span_cell = {
  s_name : string;
  calls : int Atomic.t;
  total_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

type span = span_cell
type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; value : float Atomic.t }

(* One histogram geometry: a registry histogram and a [Window] slot both
   count into [Stats.Qsketch] cells, one [int Atomic.t] per cell, beside
   an exact count and sum. The cell array is allocated by the first
   sketched observation, a CAS away from [no_cells], so an instrument
   that never fires and a count-only window hold no cells. Every field
   is an independent atomic, so concurrent observers never lose an
   observation. *)
type cells = {
  cells : int Atomic.t array Atomic.t;  (* [no_cells] until first use *)
  n : int Atomic.t;
  total : int Atomic.t;
}

let no_cells : int Atomic.t array = [||]

let cells_create () =
  { cells = Atomic.make no_cells; n = Atomic.make 0; total = Atomic.make 0 }

let rec cell_array c =
  let a = Atomic.get c.cells in
  if a != no_cells then a
  else
    let fresh = Array.init Stats.Qsketch.ncells (fun _ -> Atomic.make 0) in
    if Atomic.compare_and_set c.cells no_cells fresh then fresh
    else cell_array c

(* [v] is non-negative. *)
let cells_add ~sketch c v n =
  if sketch then
    ignore (Atomic.fetch_and_add (cell_array c).(Stats.Qsketch.index v) n);
  ignore (Atomic.fetch_and_add c.n n);
  ignore (Atomic.fetch_and_add c.total (v * n))

let cells_zero c =
  Array.iter (fun a -> Atomic.set a 0) (Atomic.get c.cells);
  Atomic.set c.n 0;
  Atomic.set c.total 0

(* The cells of every record in [cs], summed into one sketch; empty when
   none holds cells. *)
let sketch_of cs =
  let counts = Array.make Stats.Qsketch.ncells 0 in
  List.iter
    (fun c ->
      Array.iteri
        (fun i a -> counts.(i) <- counts.(i) + Atomic.get a)
        (Atomic.get c.cells))
    cs;
  Stats.Qsketch.of_counts counts

type histogram = { h_name : string; h_cells : cells }

let registry_mutex = Mutex.create ()
let span_tbl : (string, span) Hashtbl.t = Hashtbl.create 32
let counter_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauge_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 8
let hist_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 8

let intern tbl name mk =
  Mutex.lock registry_mutex;
  let cell =
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None ->
      let c = mk () in
      Hashtbl.add tbl name c;
      c
  in
  Mutex.unlock registry_mutex;
  cell

let span name =
  intern span_tbl name (fun () ->
      {
        s_name = name;
        calls = Atomic.make 0;
        total_ns = Atomic.make 0;
        max_ns = Atomic.make 0;
      })

let counter name =
  intern counter_tbl name (fun () -> { c_name = name; count = Atomic.make 0 })

let gauge name =
  intern gauge_tbl name (fun () -> { g_name = name; value = Atomic.make 0.0 })

let histogram name =
  intern hist_tbl name (fun () -> { h_name = name; h_cells = cells_create () })

let observe_many h v n =
  if n > 0 && Atomic.get enabled_flag then
    cells_add ~sketch:true h.h_cells (if v < 0 then 0 else v) n

let observe h v = observe_many h v 1
let histogram_count h = Atomic.get h.h_cells.n

let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

(* --- event capture --- *)

type event = {
  ev_name : string;
  ev_start_ns : int;
  ev_dur_ns : int;
  ev_tid : int;
}

let capture_flag = Atomic.make false
let events_mutex = Mutex.create ()
let captured : event list ref = ref []

let capturing () = Atomic.get capture_flag

let push_event name ~t0 ~dt =
  let ev =
    {
      ev_name = name;
      ev_start_ns = Int64.to_int t0;
      ev_dur_ns = dt;
      ev_tid = (Domain.self () :> int);
    }
  in
  Mutex.lock events_mutex;
  captured := ev :: !captured;
  Mutex.unlock events_mutex

let clear_events () =
  Mutex.lock events_mutex;
  captured := [];
  Mutex.unlock events_mutex

let set_capture b =
  if b then begin
    clear_events ();
    Atomic.set enabled_flag true
  end;
  Atomic.set capture_flag b

let events () =
  Mutex.lock events_mutex;
  let evs = !captured in
  Mutex.unlock events_mutex;
  List.sort
    (fun a b ->
      match compare a.ev_start_ns b.ev_start_ns with
      | 0 -> compare b.ev_dur_ns a.ev_dur_ns (* enclosing span first *)
      | c -> c)
    evs

let record sp ~t0 =
  let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  let dt = if dt < 0 then 0 else dt in
  ignore (Atomic.fetch_and_add sp.calls 1);
  ignore (Atomic.fetch_and_add sp.total_ns dt);
  store_max sp.max_ns dt;
  if Atomic.get capture_flag then push_event sp.s_name ~t0 ~dt

let time sp f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Monotonic_clock.now () in
    match f () with
    | v ->
      record sp ~t0;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      record sp ~t0;
      Printexc.raise_with_backtrace exn bt
  end

type timer = int64

let no_timer = Int64.min_int

let start () =
  if Atomic.get enabled_flag then Monotonic_clock.now () else no_timer

let stop sp t0 = if not (Int64.equal t0 no_timer) then record sp ~t0

let with_event name f =
  if not (Atomic.get capture_flag) then f ()
  else begin
    let t0 = Monotonic_clock.now () in
    match f () with
    | v ->
      let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
      push_event name ~t0 ~dt:(max 0 dt);
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
      push_event name ~t0 ~dt:(max 0 dt);
      Printexc.raise_with_backtrace exn bt
  end

let add c n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.count n)

let incr c = add c 1
let counter_value c = Atomic.get c.count
let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.value v

(* --- snapshots --- *)

type span_stat = {
  span_name : string;
  calls : int;
  total_ns : int;
  max_ns : int;
}

type histogram_stat = {
  hist_name : string;
  count : int;
  sum : int;
  p50 : int;
  p95 : int;
  p99 : int;
  buckets : (int * int) list;
}

type snapshot = {
  spans : span_stat list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_stat list;
}

let by_name tbl read =
  Hashtbl.fold (fun _ cell acc -> read cell :: acc) tbl []

let snapshot () =
  Mutex.lock registry_mutex;
  let spans =
    by_name span_tbl (fun s ->
        {
          span_name = s.s_name;
          calls = Atomic.get s.calls;
          total_ns = Atomic.get s.total_ns;
          max_ns = Atomic.get s.max_ns;
        })
    |> List.sort (fun a b -> String.compare a.span_name b.span_name)
  in
  let counters =
    by_name counter_tbl (fun c -> (c.c_name, Atomic.get c.count))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let gauges =
    by_name gauge_tbl (fun g -> (g.g_name, Atomic.get g.value))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let histograms =
    by_name hist_tbl (fun h ->
        let sk = sketch_of [ h.h_cells ] in
        let counts = Stats.Qsketch.counts sk in
        let buckets = ref [] in
        for i = Stats.Qsketch.ncells - 1 downto 0 do
          if counts.(i) > 0 then
            buckets := (Stats.Qsketch.lo i, counts.(i)) :: !buckets
        done;
        {
          hist_name = h.h_name;
          count = Atomic.get h.h_cells.n;
          sum = Atomic.get h.h_cells.total;
          p50 = Stats.Qsketch.quantile sk 0.50;
          p95 = Stats.Qsketch.quantile sk 0.95;
          p99 = Stats.Qsketch.quantile sk 0.99;
          buckets = !buckets;
        })
    |> List.sort (fun a b -> String.compare a.hist_name b.hist_name)
  in
  Mutex.unlock registry_mutex;
  { spans; counters; gauges; histograms }

let span_stat snap name =
  List.find_opt (fun s -> s.span_name = name) snap.spans

let counter_total snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

(* --- renders --- *)

let seconds ns = float_of_int ns /. 1e9

let json_of_snapshot snap =
  Json.Obj
    [
      ( "spans",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.span_name);
                   ("calls", Json.Num (float_of_int s.calls));
                   ("total_ns", Json.Num (float_of_int s.total_ns));
                   ("max_ns", Json.Num (float_of_int s.max_ns));
                   ("total_seconds", Json.Num (seconds s.total_ns));
                   ("max_seconds", Json.Num (seconds s.max_ns));
                 ])
             snap.spans) );
      ( "counters",
        Json.Arr
          (List.map
             (fun (name, v) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("value", Json.Num (float_of_int v));
                 ])
             snap.counters) );
      ( "gauges",
        Json.Arr
          (List.map
             (fun (name, v) ->
               Json.Obj [ ("name", Json.Str name); ("value", Json.Num v) ])
             snap.gauges) );
      ( "histograms",
        Json.Arr
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("name", Json.Str h.hist_name);
                   ("count", Json.Num (float_of_int h.count));
                   ("sum", Json.Num (float_of_int h.sum));
                   ( "mean",
                     Json.Num
                       (if h.count = 0 then 0.0
                        else float_of_int h.sum /. float_of_int h.count) );
                   ("p50", Json.Num (float_of_int h.p50));
                   ("p95", Json.Num (float_of_int h.p95));
                   ("p99", Json.Num (float_of_int h.p99));
                   ( "buckets",
                     Json.Arr
                       (List.map
                          (fun (lo, c) ->
                            Json.Obj
                              [
                                ("lo", Json.Num (float_of_int lo));
                                ("count", Json.Num (float_of_int c));
                              ])
                          h.buckets) );
                 ])
             snap.histograms) );
    ]

let render_json snap =
  Json.to_string (Json.Obj [ ("telemetry", json_of_snapshot snap) ]) ^ "\n"

let render_text ppf snap =
  let spans = List.filter (fun s -> s.calls > 0) snap.spans in
  let counters = List.filter (fun (_, v) -> v <> 0) snap.counters in
  let gauges = List.filter (fun (_, v) -> v <> 0.0) snap.gauges in
  let histograms = List.filter (fun h -> h.count > 0) snap.histograms in
  Format.fprintf ppf "telemetry:@.";
  if spans = [] && counters = [] && gauges = [] && histograms = [] then
    Format.fprintf ppf "  (no activity recorded)@."
  else begin
    List.iter
      (fun s ->
        Format.fprintf ppf
          "  span    %-28s calls %8d  total %10.3fs  mean %10.6fs  max \
           %10.6fs@."
          s.span_name s.calls (seconds s.total_ns)
          (seconds s.total_ns /. float_of_int (max 1 s.calls))
          (seconds s.max_ns))
      spans;
    List.iter
      (fun (name, v) ->
        Format.fprintf ppf "  counter %-28s %d@." name v)
      counters;
    List.iter
      (fun (name, v) ->
        Format.fprintf ppf "  gauge   %-28s %g@." name v)
      gauges;
    List.iter
      (fun h ->
        Format.fprintf ppf
          "  hist    %-28s count %8d  mean %10.2f  p50 %d  p95 %d  p99 %d@."
          h.hist_name h.count
          (float_of_int h.sum /. float_of_int (max 1 h.count))
          h.p50 h.p95 h.p99)
      histograms
  end

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- rolling windows --- *)

module Window = struct
  (* A rotating ring of [nslots] slots, each covering [slot_ns] of
     monotonic time. Slot for time [t]: epoch = t / slot_ns, ring index
     = epoch mod nslots. An observer that finds its slot stamped with an
     older epoch claims it by CASing in the [busy] sentinel, zeroes the
     cells, and only then publishes the new epoch; observers that see
     [busy] spin until the epoch is published, so no observation of the
     new epoch can land in a cell that is about to be zeroed. The stamp
     only ever advances: a delayed observer holding a [now] older than
     the slot's current epoch drops its observation rather than
     recycling the slot backwards and zeroing live counts. One race
     remains: an observer delayed between finding its slot and adding
     to it can count into the slot's next interval if the slot turns
     over in between. Queries merge all slots whose stamped epoch is
     still inside the window. *)

  type slot = { sl_epoch : int Atomic.t; sl_cells : cells }

  type t = {
    slot_ns : int;
    nslots : int;
    sketch : bool;
    ring : slot array;
  }

  type stat = {
    w_count : int;
    w_sum : int;
    w_mean : float;
    w_p50 : int;
    w_p95 : int;
    w_p99 : int;
  }

  let empty_stat =
    { w_count = 0; w_sum = 0; w_mean = 0.0; w_p50 = 0; w_p95 = 0; w_p99 = 0 }

  let create ?(sketch = true) ~window_ns ~slots () =
    if slots < 1 || window_ns < slots then
      invalid_arg "Telemetry.Window.create";
    {
      slot_ns = window_ns / slots;
      nslots = slots;
      sketch;
      ring =
        Array.init slots (fun _ ->
            { sl_epoch = Atomic.make min_int; sl_cells = cells_create () });
    }

  (* The stamp of a slot being claimed: its cells are being zeroed and
     its new epoch is not yet published. Never an epoch, nor the
     never-stamped [min_int]. *)
  let busy = min_int + 1

  (* [None] when [now]'s epoch is older than the slot's stamp: the slot
     has already turned over to a newer interval, so the observation is
     dropped instead of CASing the stamp backwards. The retry on a lost
     CAS terminates because the stamp strictly advances; the spin on
     [busy] because the claimer publishes right after zeroing. *)
  let rec slot_for t now =
    let epoch = now / t.slot_ns in
    let s = t.ring.(epoch mod t.nslots) in
    let stamped = Atomic.get s.sl_epoch in
    if stamped = epoch then Some s
    else if stamped = busy then begin
      Domain.cpu_relax ();
      slot_for t now
    end
    else if stamped > epoch then None
    else if Atomic.compare_and_set s.sl_epoch stamped busy then begin
      cells_zero s.sl_cells;
      Atomic.set s.sl_epoch epoch;
      Some s
    end
    else slot_for t now

  let observe ?now t v =
    let now = match now with Some n -> n | None -> now_ns () in
    match slot_for t now with
    | None -> ()
    | Some s ->
      cells_add ~sketch:t.sketch s.sl_cells (if v < 0 then 0 else v) 1

  let live t now s =
    let e = Atomic.get s.sl_epoch in
    let cur = now / t.slot_ns in
    e <> busy && e > cur - t.nslots && e <= cur

  let query ?now t =
    let now = match now with Some n -> n | None -> now_ns () in
    let slots =
      Array.fold_left
        (fun acc s -> if live t now s then s.sl_cells :: acc else acc)
        [] t.ring
    in
    let count = List.fold_left (fun acc c -> acc + Atomic.get c.n) 0 slots in
    let sum = List.fold_left (fun acc c -> acc + Atomic.get c.total) 0 slots in
    if count = 0 then empty_stat
    else
      let sk = sketch_of slots in
      {
        w_count = count;
        w_sum = sum;
        w_mean = float_of_int sum /. float_of_int count;
        w_p50 = Stats.Qsketch.quantile sk 0.50;
        w_p95 = Stats.Qsketch.quantile sk 0.95;
        w_p99 = Stats.Qsketch.quantile sk 0.99;
      }

  let count ?now t = (query ?now t).w_count
end

(* --- request-scoped traces --- *)

module Trace = struct
  (* A per-request span tree. Unlike the process-global registry above,
     a trace is request-scoped: created at frame decode, carried by the
     request through queue / workers, finished before the reply is
     rendered. Spans nest via a stack of open nodes guarded by the
     trace's own mutex — requests execute on one worker domain at a
     time, so contention is nil; the mutex exists because high-frequency
     boundary callbacks ([mark], e.g. one per replica) may fire from
     replica worker domains while the owning worker is between stages. *)

  type node = {
    n_name : string;
    n_start_ns : int;
    mutable n_dur_ns : int;  (* -1 while open *)
    mutable n_children : node list;  (* reverse recording order *)
  }

  type t = {
    tr_id : string;
    tr_root : node;
    mutable tr_open : node list;  (* innermost first; root always last *)
    tr_mutex : Mutex.t;
    tr_marks : (string, int ref) Hashtbl.t;
  }

  let create ~id () =
    let root =
      {
        n_name = "request";
        n_start_ns = now_ns ();
        n_dur_ns = -1;
        n_children = [];
      }
    in
    {
      tr_id = id;
      tr_root = root;
      tr_open = [ root ];
      tr_mutex = Mutex.create ();
      tr_marks = Hashtbl.create 4;
    }

  let id t = t.tr_id

  let locked t f =
    Mutex.lock t.tr_mutex;
    let v = f () in
    Mutex.unlock t.tr_mutex;
    v

  let innermost t =
    match t.tr_open with n :: _ -> n | [] -> t.tr_root

  let add t name ~start_ns ~dur_ns =
    let dur_ns = if dur_ns < 0 then 0 else dur_ns in
    locked t (fun () ->
        let parent = innermost t in
        parent.n_children <-
          { n_name = name; n_start_ns = start_ns; n_dur_ns = dur_ns;
            n_children = [] }
          :: parent.n_children);
    if Atomic.get capture_flag then
      push_event name ~t0:(Int64.of_int start_ns) ~dt:dur_ns

  let span t name f =
    let node =
      { n_name = name; n_start_ns = now_ns (); n_dur_ns = -1; n_children = [] }
    in
    locked t (fun () ->
        let parent = innermost t in
        parent.n_children <- node :: parent.n_children;
        t.tr_open <- node :: t.tr_open);
    let close () =
      let dt = now_ns () - node.n_start_ns in
      locked t (fun () ->
          node.n_dur_ns <- (if dt < 0 then 0 else dt);
          (* pop up to and including [node]; tolerates children left
             open by an exception *)
          let rec pop = function
            | n :: rest when n == node -> rest
            | _ :: rest -> pop rest
            | [] -> [ t.tr_root ]
          in
          t.tr_open <- pop t.tr_open);
      if Atomic.get capture_flag then
        push_event name ~t0:(Int64.of_int node.n_start_ns) ~dt:node.n_dur_ns
    in
    match f () with
    | v ->
      close ();
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      close ();
      Printexc.raise_with_backtrace exn bt

  let mark ?(n = 1) t name =
    locked t (fun () ->
        match Hashtbl.find_opt t.tr_marks name with
        | Some r -> r := !r + n
        | None -> Hashtbl.add t.tr_marks name (ref n))

  let finish t =
    let now = now_ns () in
    locked t (fun () ->
        List.iter
          (fun n ->
            if n.n_dur_ns < 0 then n.n_dur_ns <- max 0 (now - n.n_start_ns))
          t.tr_open;
        if t.tr_root.n_dur_ns < 0 then
          t.tr_root.n_dur_ns <- max 0 (now - t.tr_root.n_start_ns);
        t.tr_open <- []);
    if Atomic.get capture_flag then
      push_event
        (Printf.sprintf "request %s" t.tr_id)
        ~t0:(Int64.of_int t.tr_root.n_start_ns)
        ~dt:t.tr_root.n_dur_ns

  let to_json t =
    let base = t.tr_root.n_start_ns in
    let rec node_json n =
      Json.Obj
        [
          ("name", Json.Str n.n_name);
          ("start_ns", Json.Num (float_of_int (n.n_start_ns - base)));
          ("dur_ns", Json.Num (float_of_int (max 0 n.n_dur_ns)));
          ("children", Json.Arr (List.rev_map node_json n.n_children));
        ]
    in
    let marks =
      locked t (fun () ->
          Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.tr_marks [])
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (k, v) -> (k, Json.Num (float_of_int v)))
    in
    Json.Obj
      [
        ("id", Json.Str t.tr_id);
        ("root", node_json t.tr_root);
        ("marks", Json.Obj marks);
      ]
end

(* --- Prometheus text exposition --- *)

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_type buf name typ = Printf.bprintf buf "# TYPE %s %s\n" name typ

let prom_sample buf name labels v =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, lv) ->
        if i > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf "%s=\"%s\"" k (prom_escape lv))
      labels;
    Buffer.add_char buf '}');
  Printf.bprintf buf " %s\n" (Json.num_repr v)

let render_prometheus snap =
  let buf = Buffer.create 4096 in
  let family = prom_type buf and line = prom_sample buf in
  if snap.counters <> [] then begin
    family "statsim_counter_total" "counter";
    List.iter
      (fun (name, v) ->
        line "statsim_counter_total" [ ("name", name) ] (float_of_int v))
      snap.counters
  end;
  if snap.gauges <> [] then begin
    family "statsim_gauge" "gauge";
    List.iter
      (fun (name, v) -> line "statsim_gauge" [ ("name", name) ] v)
      snap.gauges
  end;
  if snap.spans <> [] then begin
    family "statsim_span_calls_total" "counter";
    List.iter
      (fun s ->
        line "statsim_span_calls_total"
          [ ("span", s.span_name) ]
          (float_of_int s.calls))
      snap.spans;
    family "statsim_span_total_ns" "counter";
    List.iter
      (fun s ->
        line "statsim_span_total_ns"
          [ ("span", s.span_name) ]
          (float_of_int s.total_ns))
      snap.spans;
    family "statsim_span_max_ns" "gauge";
    List.iter
      (fun s ->
        line "statsim_span_max_ns"
          [ ("span", s.span_name) ]
          (float_of_int s.max_ns))
      snap.spans
  end;
  if snap.histograms <> [] then begin
    family "statsim_hist" "histogram";
    List.iter
      (fun h ->
        (* cumulative le-buckets, one per non-empty cell, bounded by the
           cell's largest value *)
        let cum = ref 0 in
        List.iter
          (fun (lo, c) ->
            cum := !cum + c;
            let le = Stats.Qsketch.hi (Stats.Qsketch.index lo) in
            line "statsim_hist_bucket"
              [ ("name", h.hist_name); ("le", string_of_int le) ]
              (float_of_int !cum))
          h.buckets;
        line "statsim_hist_bucket"
          [ ("name", h.hist_name); ("le", "+Inf") ]
          (float_of_int h.count);
        line "statsim_hist_sum" [ ("name", h.hist_name) ]
          (float_of_int h.sum);
        line "statsim_hist_count" [ ("name", h.hist_name) ]
          (float_of_int h.count))
      snap.histograms
  end;
  Buffer.contents buf

(* --- Chrome trace-event export --- *)

let chrome_trace () =
  let evs = events () in
  (* timestamps relative to the earliest event, in microseconds *)
  let t0 = match evs with [] -> 0 | e :: _ -> e.ev_start_ns in
  let us ns = float_of_int ns /. 1e3 in
  let tids =
    List.fold_left
      (fun acc e -> if List.mem e.ev_tid acc then acc else e.ev_tid :: acc)
      [] evs
    |> List.sort compare
  in
  let thread_meta =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 1.0);
            ("tid", Json.Num (float_of_int tid));
            ( "args",
              Json.Obj
                [ ("name", Json.Str (Printf.sprintf "domain %d" tid)) ] );
          ])
      tids
  in
  let spans =
    List.map
      (fun e ->
        Json.Obj
          [
            ("name", Json.Str e.ev_name);
            ("cat", Json.Str "statsim");
            ("ph", Json.Str "X");
            ("ts", Json.Num (us (e.ev_start_ns - t0)));
            ("dur", Json.Num (us e.ev_dur_ns));
            ("pid", Json.Num 1.0);
            ("tid", Json.Num (float_of_int e.ev_tid));
          ])
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (thread_meta @ spans));
      ("displayTimeUnit", Json.Str "ms");
    ]

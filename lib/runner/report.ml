type cell = Str of string | Num of float | Fixed of float * int | Pct of float * int

type table = {
  name : string;
  label_col : string;
  label_width : int;
  col_width : int;
  columns : string list;
  rows : (string * cell list) list;
}

type block = Line of string | Table of table

type t = { id : string; blocks : block list }

let table ?(label_width = 9) ?(col_width = 9) ?(label_col = "bench") ~name
    ~columns rows =
  Table { name; label_col; label_width; col_width; columns; rows }

let nums vs = List.map (fun v -> Num v) vs

type format = Text | Csv | Json

let format_names = [ "text"; "csv"; "json" ]

let format_of_string = function
  | "text" -> Some Text
  | "csv" -> Some Csv
  | "json" -> Some Json
  | _ -> None

(* --- text: byte-compatible with the historical Format output --- *)

let text_cell buf ~w = function
  | Str s -> Buffer.add_string buf (Printf.sprintf " %*s" w s)
  | Num v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string buf (Printf.sprintf " %*d" w (int_of_float v))
    else Buffer.add_string buf (Printf.sprintf " %*.3f" w v)
  | Fixed (v, prec) -> Buffer.add_string buf (Printf.sprintf " %*.*f" w prec v)
  | Pct (v, prec) ->
    Buffer.add_string buf (Printf.sprintf " %*.*f%%" (w - 1) prec v)

let text_table buf t =
  Buffer.add_string buf (Printf.sprintf "%-*s" t.label_width t.label_col);
  List.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf " %*s" t.col_width c))
    t.columns;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf (Printf.sprintf "%-*s" t.label_width label);
      List.iter (text_cell buf ~w:t.col_width) cells;
      Buffer.add_char buf '\n')
    t.rows

let to_text ppf r =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Line s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      | Table t -> text_table buf t)
    r.blocks;
  Format.pp_print_string ppf (Buffer.contents buf);
  Format.pp_print_flush ppf ()

(* --- machine-readable value rendering --- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    string_of_int (int_of_float v)
  else Printf.sprintf "%.12g" v

let cell_value = function
  | Str s -> `S s
  | Num v | Fixed (v, _) | Pct (v, _) -> `F v

(* --- csv --- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ppf r =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Line _ -> ()
      | Table t ->
        Buffer.add_string buf (Printf.sprintf "# %s/%s\n" r.id t.name);
        let label_col = if t.label_col = "" then "label" else t.label_col in
        Buffer.add_string buf
          (String.concat "," (List.map csv_escape (label_col :: t.columns)));
        Buffer.add_char buf '\n';
        List.iter
          (fun (label, cells) ->
            let vals =
              List.map
                (fun c ->
                  match cell_value c with
                  | `S s -> csv_escape s
                  | `F v -> float_repr v)
                cells
            in
            Buffer.add_string buf
              (String.concat "," (csv_escape label :: vals));
            Buffer.add_char buf '\n')
          t.rows)
    r.blocks;
  Format.pp_print_string ppf (Buffer.contents buf);
  Format.pp_print_flush ppf ()

(* --- json --- *)

let json_string r =
  let open Telemetry.Json in
  let strs l = Arr (List.map (fun s -> Str s) l) in
  let cell c = match cell_value c with `S s -> Str s | `F v -> Num v in
  let table t =
    let label_col = if t.label_col = "" then "label" else t.label_col in
    Obj
      [
        ("name", Str t.name);
        ("columns", strs (label_col :: t.columns));
        ( "rows",
          Arr
            (List.map
               (fun (label, cells) -> Arr (Str label :: List.map cell cells))
               t.rows) );
      ]
  in
  to_string
    (Obj
       [
         ("id", Str r.id);
         ( "tables",
           Arr
             (List.filter_map
                (function Table t -> Some (table t) | Line _ -> None)
                r.blocks) );
         ( "notes",
           strs
             (List.filter_map
                (function Line s when s <> "" -> Some s | _ -> None)
                r.blocks) );
       ])

let to_json ppf r =
  Format.pp_print_string ppf (json_string r);
  Format.pp_print_string ppf "\n";
  Format.pp_print_flush ppf ()

let render = function Text -> to_text | Csv -> to_csv | Json -> to_json

(** Typed experiment reports and their renderers.

    An experiment's pure reducer turns job results into a {!t}: a
    sequence of verbatim text lines and typed tables. The render layer
    then produces the terminal text (byte-compatible with the historical
    [Format]-interleaved output), CSV, or JSON. *)

type cell =
  | Str of string  (** right-aligned text cell *)
  | Num of float
      (** the classic experiment cell: integers print as [%*d], anything
          else as [%*.3f] *)
  | Fixed of float * int  (** [%*.<prec>f] *)
  | Pct of float * int  (** [%*.<prec>f%%] — the Table 4 cell style *)

type table = {
  name : string;  (** machine-readable identifier for CSV/JSON *)
  label_col : string;  (** header of the label column; may be [""] *)
  label_width : int;
  columns : string list;
  rows : (string * cell list) list;
}

type block =
  | Line of string  (** one verbatim text line; [""] is a blank line *)
  | Table of table

type t = { id : string; blocks : block list }

val table :
  ?label_width:int ->
  ?label_col:string ->
  name:string ->
  columns:string list ->
  (string * cell list) list ->
  block
(** Defaults: [label_width = 9], [label_col = "bench"]. Text renders
    every value column 9 characters wide. *)

val nums : float list -> cell list

type format = Text | Csv | Json

val format_of_string : string -> format option
val format_names : string list

val to_text : Format.formatter -> t -> unit
val to_csv : Format.formatter -> t -> unit
val to_json : Format.formatter -> t -> unit

val render : format -> Format.formatter -> t -> unit

val json_string : t -> string
(** The JSON object for one report, unterminated by a newline. *)

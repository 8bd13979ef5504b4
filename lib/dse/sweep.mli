(** The design-space sweep grammar.

    A sweep names {!Config.Machine.axes} (RUU/LSQ sizes, widths, cache
    geometry, predictor sizing) together with the values each axis takes
    — an explicit list or a log2 range — and combines axes with
    cross-product and zip combinators. A sweep is data: it can be built
    in OCaml with the constructors below or parsed from a JSON sweep
    file, and it expands into a deterministic, canonically ordered list
    of design points under an explicit point-count guard (sweeps are
    multiplicative; a typo must not schedule a million simulations).

    Expansion order is the document order: in a [cross], the first
    child is the slowest-varying axis; a [zip] advances all children in
    lockstep. Points that agree on {!Config.Machine.profiled} share
    one profile and one compiled execution plan (the paper's own
    amortization argument), so {!Driver} collects one per group of
    points, not one per point. *)

type spec =
  | Axis of Config.Machine.axis * int list
  | Cross of spec list  (** cartesian product, first child slowest *)
  | Zip of spec list  (** lockstep; children must expand to equal counts *)

type t = {
  sweep_name : string;
  spec : spec;
  max_points : int option;  (** per-file guard override, if declared *)
}

(** {1 OCaml constructors} *)

val axis : string -> int list -> spec
(** [axis name values]. Raises [Invalid_argument] on an unknown axis
    name, an empty value list, or a value the axis does not take
    ({!Config.Machine.check_axis}). *)

val log2_range : string -> lo:int -> hi:int -> spec
(** [log2_range "ruu" ~lo:8 ~hi:64] is [axis "ruu" [8; 16; 32; 64]]:
    doubling from [lo] while <= [hi], both endpoints included when [hi]
    is a power-of-two multiple of [lo]. The doubling never wraps: up to
    [hi = max_int] it stops at the largest value <= [hi]. Raises
    [Invalid_argument] when [lo < 1] or [hi < lo], and as {!axis}
    does. *)

val cross : spec list -> spec
val zip : spec list -> spec
val make : ?max_points:int -> name:string -> spec -> t

(** {1 Sweep files} *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Sweep-file shape:
    {v
    { "name": "ruu_lsq_width",
      "max_points": 256,
      "sweep": { "cross": [
        { "axis": "ruu", "values": [16, 32, 64, 128] },
        { "axis": "lsq", "log2": { "from": 8, "to": 64 } },
        { "zip": [ { "axis": "decode_width", "values": [4, 8] },
                   { "axis": "issue_width",  "values": [4, 8] } ] } ] } }
    v}
    [max_points] is optional. Axis nodes carry either ["values"] or a
    ["log2"] range, expanded by {!log2_range}. Numbers must be integers
    of magnitude below 1e15. *)

val of_string : string -> (t, string) result
val load_file : string -> (t, string) result

(** {1 Expansion} *)

type point = (Config.Machine.axis * int) list
(** One design point: axis assignments in grammar document order. *)

val count : spec -> int
(** Number of points the spec expands to, without materializing them
    (saturates at 2^61 rather than overflowing). *)

val axes_of : spec -> Config.Machine.axis list
(** The distinct axes the spec touches, in document order. *)

val expand : ?max_points:int -> t -> (point list, string) result
(** Canonically ordered points. [Error] when a [zip]'s children expand
    to different counts, when one point would assign the same axis
    twice, or when the count exceeds the guard ([max_points] argument,
    else the sweep file's own [max_points], else 4096). *)

val label : point -> string
(** ["ruu=32 lsq=16 width=4"]: each assignment as [name=value], in
    the point's document order. *)

val apply : Config.Machine.t -> point -> Config.Machine.t
(** The design point's machine: every assignment applied to the base
    configuration in document order. *)

type spec =
  | Axis of Config.Machine.axis * int list
  | Cross of spec list
  | Zip of spec list

type t = { sweep_name : string; spec : spec; max_points : int option }

let default_max_points = 4096

(* --- constructors --- *)

let axis name values =
  match Config.Machine.find_axis name with
  | None ->
    invalid_arg
      (Printf.sprintf "Sweep.axis: unknown axis %S (known: %s)" name
         (String.concat " " Config.Machine.axis_names))
  | Some ax ->
    if values = [] then
      invalid_arg (Printf.sprintf "Sweep.axis %s: empty value list" name);
    List.iter (Config.Machine.check_axis ax) values;
    Axis (ax, values)

let log2_range name ~lo ~hi =
  if lo < 1 || hi < lo then
    invalid_arg
      (Printf.sprintf "Sweep.log2_range %s: bad range [%d, %d]" name lo hi);
  (* stop before a doubling could pass max_int and wrap *)
  let rec go v acc =
    if v > hi / 2 then List.rev (v :: acc) else go (v * 2) (v :: acc)
  in
  axis name (go lo [])

let cross ss = Cross ss
let zip ss = Zip ss
let make ?max_points ~name spec = { sweep_name = name; spec; max_points }

(* --- counting (saturating: a cross of crosses must not overflow) --- *)

(* 2^61: the largest power of two well inside OCaml's 63-bit int range
   (1 lsl 62 is already min_int) *)
let sat_cap = 1 lsl 61

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a >= sat_cap / b then sat_cap
  else a * b

let rec count = function
  | Axis (_, vs) -> List.length vs
  | Cross ss -> List.fold_left (fun acc s -> sat_mul acc (count s)) 1 ss
  | Zip ss -> ( match ss with [] -> 1 | s :: _ -> count s)

let axes_of spec =
  let rec go acc = function
    | Axis (ax, _) ->
      if List.exists (fun a -> a.Config.Machine.axis_name = ax.axis_name) acc
      then acc
      else ax :: acc
    | Cross ss | Zip ss -> List.fold_left go acc ss
  in
  List.rev (go [] spec)

(* --- expansion --- *)

type point = (Config.Machine.axis * int) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* document order: first cross child slowest, zip children in lockstep *)
let rec expand_spec = function
  | Axis (ax, vs) -> List.map (fun v -> [ (ax, v) ]) vs
  | Cross ss ->
    List.fold_left
      (fun acc s ->
        let pts = expand_spec s in
        List.concat_map (fun prefix -> List.map (fun p -> prefix @ p) pts) acc)
      [ [] ] ss
  | Zip ss ->
    let ptss = List.map expand_spec ss in
    let n =
      match ptss with
      | [] -> fail "zip: no children"
      | pts :: rest ->
        let n = List.length pts in
        List.iter
          (fun o ->
            if List.length o <> n then
              fail "zip: children expand to different counts (%d vs %d)" n
                (List.length o))
          rest;
        n
    in
    List.init n (fun i -> List.concat_map (fun pts -> List.nth pts i) ptss)

let check_distinct (p : point) =
  let rec go = function
    | [] -> ()
    | (ax, _) :: rest ->
      if
        List.exists
          (fun (b, _) ->
            b.Config.Machine.axis_name = ax.Config.Machine.axis_name)
          rest
      then fail "axis %s assigned twice in one point" ax.Config.Machine.axis_name;
      go rest
  in
  go p

let expand ?max_points t =
  let limit =
    match (max_points, t.max_points) with
    | Some m, _ -> m
    | None, Some m -> m
    | None, None -> default_max_points
  in
  let n = count t.spec in
  if n > limit then
    Error
      (Printf.sprintf
         "sweep %s: %d points exceed the guard of %d (raise --max-points to \
          run it deliberately)"
         t.sweep_name n limit)
  else
    match
      let pts = expand_spec t.spec in
      List.iter check_distinct pts;
      pts
    with
    | pts -> Ok pts
    | exception Bad msg -> Error (Printf.sprintf "sweep %s: %s" t.sweep_name msg)

let label (p : point) =
  String.concat " "
    (List.map
       (fun (ax, v) -> Printf.sprintf "%s=%d" ax.Config.Machine.axis_name v)
       p)

let apply base (p : point) =
  List.fold_left (fun cfg (ax, v) -> ax.Config.Machine.axis_set cfg v) base p

(* --- JSON sweep files --- *)

module J = Telemetry.Json

let jstr = function J.Str s -> Some s | _ -> None

(* the bound [Ops.int_exn] uses: [int_of_float] is unspecified past
   2^62, so larger magnitudes are refused, not converted *)
let jint name = function
  | J.Num v when Float.is_integer v && Float.abs v < 1e15 -> int_of_float v
  | J.Num v when Float.is_integer v -> fail "%s: %g is out of range" name v
  | _ -> fail "%s: expected an integer" name

let rec spec_of_json j =
  match j with
  | J.Obj kvs -> (
    match
      ( List.mem_assoc "axis" kvs,
        List.mem_assoc "cross" kvs,
        List.mem_assoc "zip" kvs )
    with
    | true, false, false -> axis_of_json kvs
    | false, true, false -> Cross (children "cross" kvs)
    | false, false, true -> Zip (children "zip" kvs)
    | _ -> fail "sweep node needs exactly one of \"axis\", \"cross\", \"zip\"")
  | _ -> fail "sweep node must be an object"

and children key kvs =
  match List.assoc key kvs with
  | J.Arr js when js <> [] -> List.map spec_of_json js
  | J.Arr [] -> fail "%s: empty combinator" key
  | _ -> fail "%s: expected an array" key

and axis_of_json kvs =
  let name =
    match jstr (List.assoc "axis" kvs) with
    | Some s -> s
    | None -> fail "\"axis\" must name an axis"
  in
  match
    match (List.assoc_opt "values" kvs, List.assoc_opt "log2" kvs) with
    | Some (J.Arr vs), None ->
      axis name (List.map (jint (Printf.sprintf "axis %s values" name)) vs)
    | Some _, None -> fail "axis %s: \"values\" must be an array" name
    | None, Some (J.Obj r) ->
      let field k =
        match List.assoc_opt k r with
        | Some v -> jint (Printf.sprintf "axis %s log2.%s" name k) v
        | None -> fail "axis %s: log2 range needs \"from\" and \"to\"" name
      in
      log2_range name ~lo:(field "from") ~hi:(field "to")
    | None, Some _ -> fail "axis %s: \"log2\" must be an object" name
    | Some _, Some _ -> fail "axis %s: give \"values\" or \"log2\", not both" name
    | None, None -> fail "axis %s: missing \"values\" or \"log2\"" name
  with
  | s -> s
  | exception Invalid_argument msg -> fail "%s" msg

let of_json j =
  match j with
  | J.Obj kvs -> (
    try
      let name =
        match Option.bind (List.assoc_opt "name" kvs) jstr with
        | Some s -> s
        | None -> fail "sweep file: missing \"name\""
      in
      let max_points =
        Option.map (jint "max_points") (List.assoc_opt "max_points" kvs)
      in
      (match max_points with
      | Some m when m < 1 -> fail "max_points: %d < 1" m
      | Some _ | None -> ());
      let spec =
        match List.assoc_opt "sweep" kvs with
        | Some s -> spec_of_json s
        | None -> fail "sweep file: missing \"sweep\""
      in
      Ok { sweep_name = name; spec; max_points }
    with Bad msg -> Error msg)
  | _ -> Error "sweep file: expected a JSON object"

let of_string s =
  match J.of_string s with Ok j -> of_json j | Error msg -> Error msg

let load_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let scale =
  match Sys.getenv_opt "REPRO_SCALE" with
  | None -> 1.0
  | Some s -> (
    match float_of_string_opt s with
    | Some f when f > 0.0 -> f
    | Some _ | None ->
      prerr_endline "warning: ignoring invalid REPRO_SCALE";
      1.0)

let scaled n = int_of_float (float_of_int n *. scale)
let ref_length = scaled 300_000
let syn_length = scaled 40_000

let benches =
  match Sys.getenv_opt "REPRO_BENCHES" with
  | None | Some "" -> Workload.Suite.all
  | Some names ->
    String.split_on_char ',' names
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map Workload.Suite.find

let stream ?seed_offset ?(length = ref_length) spec =
  Workload.Suite.stream ?seed_offset spec ~length

let seed = 20040609 (* ISCA 2004 *)

let phased_stream spec ~phases ~length =
  if phases <= 0 then invalid_arg "Exp_common.phased_stream";
  let per_phase = max 1 (length / phases) in
  let phase = ref 0 in
  let cur = ref (stream ~seed_offset:0 ~length:per_phase spec) in
  let rec next () =
    match !cur () with
    | Some i -> Some i
    | None ->
      if !phase + 1 >= phases then None
      else begin
        incr phase;
        cur := stream ~seed_offset:(!phase * 7717) ~length:per_phase spec;
        next ()
      end
  in
  next

(* --- stream sources: a value a job can carry that both keys the memo
   cache and rebuilds a fresh generator on any domain --- *)

type src =
  | Int_src of { name : string; seed_offset : int; length : int }
  | Fp_src of { name : string; length : int }
  | Phased_src of { name : string; phases : int; length : int }

let src ?(seed_offset = 0) ?(length = ref_length) (spec : Workload.Spec.t) =
  Int_src { name = spec.name; seed_offset; length }

let fp_src ?(length = ref_length) (spec : Workload.Spec.t) =
  Fp_src { name = spec.name; length }

let phased_src (spec : Workload.Spec.t) ~phases ~length =
  Phased_src { name = spec.name; phases; length }

let src_key = function
  | Int_src { name; seed_offset; length } ->
    Workload.Suite.stream_key ~seed_offset name ~length
  | Fp_src { name; length } -> Printf.sprintf "fp:%s:n%d" name length
  | Phased_src { name; phases; length } ->
    Printf.sprintf "phased:%s:p%d:n%d" name phases length

let src_gen = function
  | Int_src { name; seed_offset; length } ->
    stream ~seed_offset ~length (Workload.Suite.find name)
  | Fp_src { name; length } ->
    Workload.Suite_fp.stream (Workload.Suite_fp.find name) ~length
  | Phased_src { name; phases; length } ->
    phased_stream (Workload.Suite.find name) ~phases ~length

let reference cache ?max_instructions ?perfect_caches ?perfect_bpred cfg s =
  Runner.Cache.reference cache ?max_instructions ?perfect_caches
    ?perfect_bpred cfg ~stream_key:(src_key s) (fun () -> src_gen s)

let profile cache ?k ?dep_cap ?branch_mode ?perfect_caches ?perfect_bpred cfg
    s =
  Runner.Cache.profile cache ?k ?dep_cap ?branch_mode ?perfect_caches
    ?perfect_bpred cfg ~stream_key:(src_key s) (fun () -> src_gen s)

let synthetic cache ?reduction ?target_length cfg p ~seed =
  let plan =
    match (reduction, target_length) with
    | None, None -> Runner.Cache.plan cache ~target_length:syn_length p
    | _ -> Runner.Cache.plan cache ?reduction ?target_length p
  in
  Statsim.run_plan cfg plan ~seed

let pct = Stats.Summary.percent

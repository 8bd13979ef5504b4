let d = Spec.default

let fp_mix ?(load = 0.30) ?(store = 0.10) ~fp () =
  let remaining = 1.0 -. load -. store -. fp in
  {
    Spec.load;
    store;
    int_alu = remaining *. 0.92;
    int_mult = remaining *. 0.06;
    int_div = remaining *. 0.02;
    fp_alu = fp *. 0.55;
    fp_mult = fp *. 0.33;
    fp_div = fp *. 0.09;
    fp_sqrt = fp *. 0.03;
  }

(* shallow-water stencil: huge predictable loops streaming large grids *)
let swim =
  {
    d with
    name = "swim";
    n_funcs = 6;
    func_structs = 5;
    block_len_mean = 12.0;
    mix = fp_mix ~fp:0.38 ();
    basic_w = 0.25;
    loop_w = 0.45;
    if_w = 0.08;
    ifelse_w = 0.04;
    call_w = 0.05;
    switch_w = 0.0;
    loop_trip_mean = 96.0;
    loop_trip_geometric = false;
    biased_frac = 0.9;
    bias = 0.98;
    pattern_frac = 0.02;
    stable_src_frac = 0.45;
    local_dep_prob = 0.5;
    dep_geo_p = 0.4;
    n_regions = 6;
    region_skew = 0.30;
    data_footprint = 12 * 1024 * 1024;
    chase_frac = 0.0;
    stride_frac = 0.9;
    stack_frac = 0.02;
  }

(* multigrid solver: nested loops, moderate reuse between grid levels *)
let mgrid =
  {
    swim with
    name = "mgrid";
    block_len_mean = 10.0;
    loop_trip_mean = 48.0;
    region_skew = 0.45;
    data_footprint = 8 * 1024 * 1024;
    stride_frac = 0.85;
    mix = fp_mix ~fp:0.42 ();
  }

(* PDE solver: longer dependency chains through fp divides *)
let applu =
  {
    swim with
    name = "applu";
    block_len_mean = 9.0;
    loop_trip_mean = 32.0;
    mix = fp_mix ~load:0.28 ~fp:0.40 ();
    local_dep_prob = 0.8;
    dep_geo_p = 0.7;
    stable_src_frac = 0.2;
    region_skew = 0.5;
    data_footprint = 4 * 1024 * 1024;
  }

(* neural-net image recognition: small kernel, data-dependent branches *)
let art =
  {
    d with
    name = "art";
    n_funcs = 4;
    func_structs = 4;
    block_len_mean = 6.0;
    mix = fp_mix ~load:0.34 ~fp:0.30 ();
    loop_w = 0.3;
    if_w = 0.2;
    ifelse_w = 0.1;
    call_w = 0.05;
    switch_w = 0.0;
    loop_trip_mean = 24.0;
    loop_trip_geometric = false;
    biased_frac = 0.55;
    pattern_frac = 0.05;
    bias = 0.93;
    stable_src_frac = 0.35;
    n_regions = 8;
    region_skew = 0.25;
    data_footprint = 6 * 1024 * 1024;
    stride_frac = 0.6;
    stack_frac = 0.05;
    chase_frac = 0.05;
  }

(* earthquake simulation: sparse-matrix access patterns *)
let equake =
  {
    art with
    name = "equake";
    block_len_mean = 7.0;
    mix = fp_mix ~load:0.36 ~fp:0.32 ();
    stride_frac = 0.3;
    chase_frac = 0.2;
    region_skew = 0.35;
    loop_trip_mean = 16.0;
    loop_trip_geometric = true;
  }

let all = [ swim; mgrid; applu; art; equake ]
let find name = List.find (fun (s : Spec.t) -> s.name = name) all

let seed_of (s : Spec.t) =
  let h = ref 5381 in
  String.iter (fun c -> h := (!h * 33) + Char.code c) s.name;
  !h land 0x3FFFFFFF

let program s = Program.generate s ~seed:(seed_of s)

let stream ?(seed_offset = 0) s ~length =
  let p = program s in
  Interp.generator p ~seed:(seed_of s + 5167 + seed_offset) ~length

let d = Spec.default

let int_mix ?(load = 0.28) ?(store = 0.12) ?(mult = 0.02) ?(div = 0.002)
    ?(fp = 0.0) () =
  let alu = 1.0 -. load -. store -. mult -. div -. fp in
  {
    Spec.load;
    store;
    int_alu = alu;
    int_mult = mult;
    int_div = div;
    fp_alu = fp *. 0.7;
    fp_mult = fp *. 0.2;
    fp_div = fp *. 0.08;
    fp_sqrt = fp *. 0.02;
  }

(* compression: tight predictable loops over strided buffers, long blocks *)
let bzip2 =
  {
    d with
    name = "bzip2";
    n_funcs = 12;
    func_structs = 7;
    block_len_mean = 8.0;
    mix = int_mix ~load:0.26 ~store:0.12 ~mult:0.01 ~div:0.0002 ();
    loop_w = 0.30;
    if_w = 0.15;
    ifelse_w = 0.10;
    call_w = 0.06;
    switch_w = 0.01;
    loop_trip_mean = 10.0;
    loop_trip_geometric = true;
    biased_frac = 0.42;
    pattern_frac = 0.03;
    bias = 0.92;
    random_taken = 0.5;
    data_footprint = 1024 * 1024;
    stride_frac = 0.75;
    stack_frac = 0.08;
    n_regions = 6;
    region_skew = 0.52;
    local_dep_prob = 0.30;
    dep_geo_p = 0.30;
    chase_frac = 0.02;
    stable_src_frac = 0.50;
  }

(* chess search: short blocks, data-dependent branches, scattered memory *)
let crafty =
  {
    d with
    name = "crafty";
    n_funcs = 30;
    func_structs = 8;
    block_len_mean = 3.6;
    mix = int_mix ~load:0.32 ~store:0.10 ~mult:0.03 ();
    loop_w = 0.12;
    if_w = 0.26;
    ifelse_w = 0.20;
    call_w = 0.16;
    switch_w = 0.02;
    loop_trip_mean = 12.0;
    loop_trip_geometric = true;
    biased_frac = 0.88;
    pattern_frac = 0.03;
    bias = 0.96;
    random_taken = 0.5;
    data_footprint = 8 * 1024 * 1024;
    stride_frac = 0.15;
    stack_frac = 0.20;
    n_regions = 12;
    region_skew = 0.16;
    local_dep_prob = 0.70;
    dep_geo_p = 0.6;
    chase_frac = 0.18;
  }

(* C++ ray tracer: some FP, many short patterned loops — the workload
   where immediate-update profiling overstates predictability most *)
let eon =
  {
    d with
    name = "eon";
    n_funcs = 10;
    func_structs = 6;
    block_len_mean = 5.5;
    mix = int_mix ~load:0.26 ~store:0.12 ~mult:0.03 ~div:0.012 ~fp:0.26 ();
    loop_w = 0.26;
    if_w = 0.20;
    ifelse_w = 0.12;
    call_w = 0.14;
    switch_w = 0.01;
    loop_trip_mean = 32.0;
    loop_trip_geometric = false;
    biased_frac = 0.86;
    pattern_frac = 0.12;
    bias = 0.95;
    random_taken = 0.5;
    data_footprint = 512 * 1024;
    stride_frac = 0.45;
    stack_frac = 0.25;
    region_skew = 0.32;
    local_dep_prob = 0.95;
    dep_geo_p = 0.90;
    stable_src_frac = 0.05;
    chase_frac = 0.30;
  }

(* compiler: very large code footprint, moderate everything *)
let gcc =
  {
    d with
    name = "gcc";
    n_funcs = 200;
    func_structs = 6;
    block_len_mean = 4.5;
    mix = int_mix ~load:0.27 ~store:0.14 ();
    loop_w = 0.08;
    if_w = 0.24;
    ifelse_w = 0.16;
    call_w = 0.15;
    switch_w = 0.04;
    loop_trip_mean = 12.0;
    loop_trip_geometric = true;
    biased_frac = 0.85;
    pattern_frac = 0.04;
    bias = 0.95;
    random_taken = 0.5;
    data_footprint = 2 * 1024 * 1024;
    stride_frac = 0.30;
    stack_frac = 0.25;
    n_regions = 16;
    region_skew = 0.50;
    local_dep_prob = 0.70;
    dep_geo_p = 0.6;
    chase_frac = 0.10;
  }

(* compression, even more regular than bzip2: highest IPC *)
let gzip =
  {
    d with
    name = "gzip";
    n_funcs = 8;
    func_structs = 5;
    block_len_mean = 9.0;
    mix = int_mix ~load:0.24 ~store:0.10 ();
    loop_w = 0.32;
    if_w = 0.14;
    ifelse_w = 0.08;
    call_w = 0.05;
    switch_w = 0.01;
    loop_trip_mean = 12.0;
    loop_trip_geometric = false;
    biased_frac = 0.60;
    pattern_frac = 0.03;
    bias = 0.95;
    random_taken = 0.5;
    data_footprint = 1024 * 1024;
    stride_frac = 0.80;
    stack_frac = 0.05;
    n_regions = 4;
    region_skew = 0.62;
    local_dep_prob = 0.55;
    dep_geo_p = 0.45;
    chase_frac = 0.05;
  }

(* NL parser: pointer chasing and genuinely hard branches *)
let parser =
  {
    d with
    name = "parser";
    n_funcs = 40;
    func_structs = 8;
    block_len_mean = 4.0;
    mix = int_mix ~load:0.33 ~store:0.11 ();
    loop_w = 0.14;
    if_w = 0.26;
    ifelse_w = 0.20;
    call_w = 0.14;
    switch_w = 0.02;
    loop_trip_mean = 4.0;
    loop_trip_geometric = true;
    biased_frac = 0.35;
    pattern_frac = 0.03;
    bias = 0.85;
    random_taken = 0.5;
    data_footprint = 6 * 1024 * 1024;
    stride_frac = 0.12;
    stack_frac = 0.18;
    n_regions = 20;
    region_skew = 0.40;
    local_dep_prob = 0.70;
    dep_geo_p = 0.6;
    chase_frac = 0.15;
  }

(* perl interpreter: dispatch switches and patterned control *)
let perlbmk =
  {
    d with
    name = "perlbmk";
    n_funcs = 8;
    func_structs = 5;
    block_len_mean = 4.5;
    mix = int_mix ~load:0.30 ~store:0.13 ();
    loop_w = 0.16;
    if_w = 0.18;
    ifelse_w = 0.12;
    call_w = 0.14;
    switch_w = 0.03;
    switch_fanout = 4;
    loop_trip_mean = 16.0;
    loop_trip_geometric = true;
    biased_frac = 0.85;
    pattern_frac = 0.04;
    bias = 0.93;
    random_taken = 0.5;
    data_footprint = 1024 * 1024;
    stride_frac = 0.25;
    stack_frac = 0.30;
    region_skew = 0.42;
    chase_frac = 0.20;
  }

(* place & route: hard branches over a large graph — lowest predictability *)
let twolf =
  {
    d with
    name = "twolf";
    n_funcs = 8;
    func_structs = 5;
    block_len_mean = 3.4;
    mix = int_mix ~load:0.34 ~store:0.12 ~fp:0.03 ();
    loop_w = 0.12;
    if_w = 0.30;
    ifelse_w = 0.22;
    call_w = 0.10;
    switch_w = 0.01;
    loop_trip_mean = 6.0;
    loop_trip_geometric = true;
    biased_frac = 0.50;
    pattern_frac = 0.03;
    bias = 0.8;
    random_taken = 0.5;
    data_footprint = 6 * 1024 * 1024;
    stride_frac = 0.10;
    stack_frac = 0.12;
    n_regions = 16;
    region_skew = 0.28;
    local_dep_prob = 0.72;
    dep_geo_p = 0.65;
    chase_frac = 0.22;
  }

(* OO database: big code, call-heavy, very predictable branches *)
let vortex =
  {
    d with
    name = "vortex";
    n_funcs = 80;
    func_structs = 6;
    block_len_mean = 5.5;
    mix = int_mix ~load:0.30 ~store:0.15 ();
    loop_w = 0.12;
    if_w = 0.20;
    ifelse_w = 0.10;
    call_w = 0.18;
    switch_w = 0.005;
    loop_trip_mean = 32.0;
    loop_trip_geometric = false;
    biased_frac = 0.97;
    pattern_frac = 0.01;
    bias = 0.985;
    random_taken = 0.3;
    data_footprint = 8 * 1024 * 1024;
    stride_frac = 0.35;
    stack_frac = 0.30;
    n_regions = 16;
    region_skew = 0.27;
    chase_frac = 0.20;
  }

(* FPGA place & route: tiny hot code, hard branches, large data *)
let vpr =
  {
    d with
    name = "vpr";
    n_funcs = 3;
    func_structs = 3;
    max_depth = 2;
    block_len_mean = 4.2;
    mix = int_mix ~load:0.31 ~store:0.12 ~fp:0.06 ();
    loop_w = 0.18;
    if_w = 0.28;
    ifelse_w = 0.20;
    call_w = 0.08;
    switch_w = 0.01;
    loop_trip_mean = 12.0;
    loop_trip_geometric = true;
    biased_frac = 0.70;
    pattern_frac = 0.04;
    bias = 0.88;
    random_taken = 0.5;
    data_footprint = 4 * 1024 * 1024;
    stride_frac = 0.18;
    stack_frac = 0.15;
    n_regions = 10;
    region_skew = 0.22;
    local_dep_prob = 0.72;
    dep_geo_p = 0.65;
    chase_frac = 0.22;
  }

let all =
  [ bzip2; crafty; eon; gcc; gzip; parser; perlbmk; twolf; vortex; vpr ]

let names = List.map (fun (s : Spec.t) -> s.name) all

let find name = List.find (fun (s : Spec.t) -> s.name = name) all

(* stable string hash independent of OCaml's Hashtbl seed *)
let program_seed (s : Spec.t) =
  let h = ref 5381 in
  String.iter (fun c -> h := (!h * 33) + Char.code c) s.name;
  !h land 0x3FFFFFFF

let program s = Program.generate s ~seed:(program_seed s)

let stream ?(seed_offset = 0) ?program:prog s ~length =
  let p = match prog with Some p -> p | None -> program s in
  Interp.generator p ~seed:(program_seed s + 7919 + seed_offset) ~length

let stream_key ?(seed_offset = 0) name ~length =
  Printf.sprintf "int:%s:o%d:n%d" name seed_offset length

(* Closed-form node visit frequencies for the reduced SFG.

   The synthetic-trace generator is a Markov chain over surviving SFG
   nodes: step 9's edge walk is the transition matrix, and a dead end
   restarts from the reduced-occurrence distribution (Generate's
   [restart]).  Its stationary vector pi solves pi P = pi with
   sum pi = 1; weighting each node's profiled statistics by
   pi_i / occurrences_i then yields a zero-simulation first-order
   IPC/mix estimate — the linear-equational shortcut of Di Pierro &
   Wiklicky applied to the paper's SFG.

   The raw edge chain can be reducible (dropping edges to reduced-away
   nodes strands mass in small recurrent cliques), in which case the
   stationary vector is not unique and any solver picks an arbitrary
   basin.  The real generator never gets stuck: its occupancy-budget
   sampler renormalizes over the remaining visit counts, which acts as
   a global restart.  of_sfg models that as an epsilon-mixture with the
   restart distribution — row <- (1-eps) row + eps start — making the
   chain irreducible (unique pi, well-posed direct solve) at the cost
   of pulling pi slightly toward the occupancy distribution.

   Solver: Gaussian elimination with partial pivoting over
   (P - I)^T x = 0 with one balance row swapped for the normalisation
   sum x = 1 (rank of P - I is n-1 for a single recurrent class).  A
   damped power iteration is the fallback for singular systems
   (multiple recurrent classes), oversized graphs, or a direct solution
   that fails its residual check. *)

type method_ = Direct | Power

type solution = {
  pi : float array;  (** stationary distribution; sums to 1 *)
  solved_by : method_;
  iterations : int;  (** 0 when solved directly *)
  residual : float;  (** max_j |(pi P)_j - pi_j| *)
}

(* Sparse row-stochastic rows: rows.(i) lists (successor, probability). *)
type rows = (int * float) array array

type graph = {
  keys : int array;  (** surviving SFG node keys, ascending *)
  occ : int array;  (** reduced occurrences (occurrences / R) *)
  rows : rows;
  dead_ends : int;  (** rows rewritten to the restart distribution *)
}

let residual (rows : rows) pi =
  let n = Array.length pi in
  let next = Array.make n 0.0 in
  Array.iteri
    (fun i row ->
      let m = pi.(i) in
      if m <> 0.0 then
        Array.iter (fun (j, p) -> next.(j) <- next.(j) +. (m *. p)) row)
    rows;
  let r = ref 0.0 in
  for j = 0 to n - 1 do
    r := Float.max !r (Float.abs (next.(j) -. pi.(j)))
  done;
  !r

let normalize pi =
  let s = Array.fold_left ( +. ) 0.0 pi in
  if s > 0.0 then
    Array.iteri (fun i x -> pi.(i) <- Float.max 0.0 x /. s) pi;
  pi

(* The weight of [of_sfg]'s restart mixture, the largest graph solved by
   direct elimination, and the power iteration's iteration cap. *)
let restart = 0.01
let max_dense = 1024
let max_iter = 50_000

let power_iteration ?(tol = 1e-12) ?init (rows : rows) =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Steady_state.power_iteration: empty matrix";
  let pi =
    match init with
    | Some v when Array.length v = n -> normalize (Array.copy v)
    | Some _ -> invalid_arg "Steady_state.power_iteration: init size mismatch"
    | None -> Array.make n (1.0 /. float_of_int n)
  in
  let next = Array.make n 0.0 in
  let iters = ref 0 in
  let diff = ref Float.infinity in
  (* the damped (lazy) step pi <- (pi + pi P) / 2 shares P's stationary
     vector but is aperiodic by construction, so the convergence guard
     cannot be defeated by a periodic chain oscillating forever *)
  while !diff > tol && !iters < max_iter do
    incr iters;
    Array.fill next 0 n 0.0;
    Array.iteri
      (fun i row ->
        let m = pi.(i) in
        if m <> 0.0 then
          Array.iter (fun (j, p) -> next.(j) <- next.(j) +. (m *. p)) row)
      rows;
    diff := 0.0;
    for j = 0 to n - 1 do
      let v = 0.5 *. (pi.(j) +. next.(j)) in
      diff := Float.max !diff (Float.abs (v -. pi.(j)));
      pi.(j) <- v
    done
  done;
  let pi = normalize pi in
  (pi, !iters, residual rows pi)

(* Gaussian elimination with partial pivoting on the augmented system;
   [None] when a pivot degenerates (reducible chain) or the solution is
   non-finite / meaningfully negative. *)
let solve_direct (rows : rows) =
  let n = Array.length rows in
  if n = 0 then None
  else begin
    let a = Array.make_matrix n (n + 1) 0.0 in
    (* column i of (P - I)^T is row i of P - I *)
    Array.iteri
      (fun i row ->
        Array.iter (fun (j, p) -> a.(j).(i) <- a.(j).(i) +. p) row;
        a.(i).(i) <- a.(i).(i) -. 1.0)
      rows;
    (* swap one balance equation for the normalisation row *)
    for j = 0 to n - 1 do
      a.(n - 1).(j) <- 1.0
    done;
    a.(n - 1).(n) <- 1.0;
    let singular = ref false in
    (try
       for c = 0 to n - 1 do
         let pivot = ref c in
         for r = c + 1 to n - 1 do
           if Float.abs a.(r).(c) > Float.abs a.(!pivot).(c) then pivot := r
         done;
         if Float.abs a.(!pivot).(c) < 1e-10 then begin
           singular := true;
           raise Exit
         end;
         if !pivot <> c then begin
           let t = a.(c) in
           a.(c) <- a.(!pivot);
           a.(!pivot) <- t
         end;
         for r = c + 1 to n - 1 do
           let f = a.(r).(c) /. a.(c).(c) in
           if f <> 0.0 then
             for j = c to n do
               a.(r).(j) <- a.(r).(j) -. (f *. a.(c).(j))
             done
         done
       done
     with Exit -> ());
    if !singular then None
    else begin
      let x = Array.make n 0.0 in
      for r = n - 1 downto 0 do
        let s = ref a.(r).(n) in
        for j = r + 1 to n - 1 do
          s := !s -. (a.(r).(j) *. x.(j))
        done;
        x.(r) <- !s /. a.(r).(r)
      done;
      let ok = ref true in
      Array.iter
        (fun v -> if (not (Float.is_finite v)) || v < -1e-8 then ok := false)
        x;
      if !ok then Some (normalize x) else None
    end
  end

let rows_of_dense p =
  Array.map
    (fun row ->
      let cells = ref [] in
      Array.iteri (fun j x -> if x <> 0.0 then cells := (j, x) :: !cells) row;
      Array.of_list (List.rev !cells))
    p

let solve_rows ?init (rows : rows) =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Steady_state.solve: empty matrix";
  let direct =
    if n > max_dense then None
    else
      match solve_direct rows with
      | Some pi ->
        let r = residual rows pi in
        if r <= 1e-8 then Some { pi; solved_by = Direct; iterations = 0; residual = r }
        else None
      | None -> None
  in
  match direct with
  | Some s -> s
  | None ->
    let pi, iterations, residual = power_iteration ?init rows in
    { pi; solved_by = Power; iterations; residual }

let stationary_dense p = solve_rows (rows_of_dense p)

(* The chain of the reduced graph, over [Profile.Sfg.reduce]'s dense
   indices. *)
let of_reduced (r : Profile.Sfg.reduced) =
  let n = Array.length r.survivors in
  if n = 0 then invalid_arg "Steady_state.of_sfg: reduction empties the graph";
  (* the generator's restart distribution: reduced occurrences *)
  let occ_total = float_of_int (Array.fold_left ( + ) 0 r.visits) in
  let start_row =
    Array.mapi (fun i o -> (i, float_of_int o /. occ_total)) r.visits
  in
  let dead_ends = ref 0 in
  let rows =
    Array.init n (fun i ->
        let cells = Profile.Sfg.successors r i in
        let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 cells in
        if total = 0 then begin
          incr dead_ends;
          start_row
        end
        else begin
          let t = float_of_int total in
          (* every survivor has occ >= 1, so the restart mixture
             densifies the row; accumulate over a dense scratch *)
          let out =
            Array.map (fun (_, sp) -> restart *. sp) start_row
          in
          Array.iter
            (fun (j, c) ->
              out.(j) <-
                out.(j) +. ((1.0 -. restart) *. (float_of_int c /. t)))
            cells;
          let acc = ref [] in
          for j = Array.length out - 1 downto 0 do
            if out.(j) <> 0.0 then acc := (j, out.(j)) :: !acc
          done;
          Array.of_list !acc
        end)
  in
  {
    keys = Array.map (fun (nd : Profile.Sfg.node) -> nd.key) r.survivors;
    occ = r.visits;
    rows;
    dead_ends = !dead_ends;
  }

let reduce sfg ~reduction =
  if reduction < 1 then invalid_arg "Steady_state.of_sfg: reduction < 1";
  Profile.Sfg.reduce sfg ~reduction

let of_sfg ?(reduction = 1) sfg = of_reduced (reduce sfg ~reduction)

let solve g =
  let init =
    let t = float_of_int (Array.fold_left ( + ) 0 g.occ) in
    Array.map (fun o -> float_of_int o /. t) g.occ
  in
  solve_rows ~init g.rows

type estimate = {
  nodes : int;
  dead_ends : int;
  solution : solution;
  mix : (Isa.Iclass.t * float) list;
      (** stationary instruction-class mix; all 12 classes, sums to 1 *)
  breakdown : Model.breakdown;
  ipc : float;
}

let estimate ?(reduction = 1) (cfg : Config.Machine.t)
    (p : Profile.Stat_profile.t) =
  let r = reduce p.sfg ~reduction in
  let g = of_reduced r in
  let sol = solve g in
  (* pi_i / occurrences_i turns raw per-node counts into per-visit
     expectations weighted by the stationary distribution *)
  let weight (n : Profile.Sfg.node) =
    match Hashtbl.find_opt r.index n.key with
    | Some i -> sol.pi.(i) /. float_of_int n.occurrences
    | None -> 0.0
  in
  let agg = Model.aggregate_weighted ~weight p in
  let t = agg.totals in
  let mix =
    Array.to_list
      (Array.map
         (fun k -> (k, t.by_class.(Isa.Iclass.index k) /. t.instructions))
         Isa.Iclass.all)
  in
  let breakdown = Model.predict_aggregates cfg agg in
  {
    nodes = Array.length g.keys;
    dead_ends = g.dead_ends;
    solution = sol;
    mix;
    breakdown;
    ipc = 1.0 /. breakdown.total_cpi;
  }

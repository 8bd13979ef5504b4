type result = {
  k : int;
  assignment : int array;
  centroids : float array array;
  sse : float;
}

let sqdist a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

(* k-means++ initial centroids *)
let seed_centroids rng points k =
  let n = Array.length points in
  let centroids = Array.make k points.(Prng.int rng n) in
  let d2 = Array.make n infinity in
  for c = 1 to k - 1 do
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      d2.(i) <- Float.min d2.(i) (sqdist points.(i) centroids.(c - 1));
      total := !total +. d2.(i)
    done;
    let next =
      if !total <= 0.0 then Prng.int rng n
      else begin
        let x = Prng.float rng !total in
        let acc = ref 0.0 and chosen = ref (n - 1) in
        (try
           for i = 0 to n - 1 do
             acc := !acc +. d2.(i);
             if !acc >= x then begin
               chosen := i;
               raise Exit
             end
           done
         with Exit -> ());
        !chosen
      end
    in
    centroids.(c) <- points.(next)
  done;
  Array.map Array.copy centroids

let max_iters = 100

let cluster rng ~points ~k =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.cluster: no points";
  if k <= 0 then invalid_arg "Kmeans.cluster: k <= 0";
  let dims = Array.length points.(0) in
  let k = min k n in
  let centroids = seed_centroids rng points k in
  let assignment = Array.make n 0 in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    (* assign *)
    for i = 0 to n - 1 do
      let best = ref 0 and best_d = ref infinity in
      for c = 0 to k - 1 do
        let d = sqdist points.(i) centroids.(c) in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      if assignment.(i) <> !best then begin
        assignment.(i) <- !best;
        changed := true
      end
    done;
    (* update *)
    let sums = Array.init k (fun _ -> Array.make dims 0.0) in
    let counts = Array.make k 0 in
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      counts.(c) <- counts.(c) + 1;
      let p = points.(i) in
      let s = sums.(c) in
      for j = 0 to dims - 1 do
        s.(j) <- s.(j) +. p.(j)
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then
        centroids.(c) <-
          Array.map (fun x -> x /. float_of_int counts.(c)) sums.(c)
    done
  done;
  let sse = ref 0.0 in
  for i = 0 to n - 1 do
    sse := !sse +. sqdist points.(i) centroids.(assignment.(i))
  done;
  { k; assignment; centroids; sse = !sse }

let bic r ~n_dims =
  let n = float_of_int (Array.length r.assignment) in
  let k = float_of_int r.k in
  let d = float_of_int n_dims in
  (* log-likelihood of a spherical Gaussian mixture with shared variance *)
  let variance = Float.max 1e-9 (r.sse /. Float.max 1.0 (n -. k)) in
  let loglik = -.n *. d /. 2.0 *. log (2.0 *. Float.pi *. variance) -. (n -. k) /. 2.0 in
  let params = (k -. 1.0) +. (k *. d) +. 1.0 in
  loglik -. (params /. 2.0 *. log n)

let best ?(max_clusters = 10) rng ~points =
  let n_dims = Array.length points.(0) in
  let candidates =
    List.init (min max_clusters (Array.length points)) (fun i ->
        let r = cluster rng ~points ~k:(i + 1) in
        (r, bic r ~n_dims))
  in
  let best_score =
    List.fold_left (fun acc (_, s) -> Float.max acc s) neg_infinity candidates
  in
  (* smallest k reaching 90% of the best BIC (BIC can be negative; use the
     span between worst and best) *)
  let worst_score =
    List.fold_left (fun acc (_, s) -> Float.min acc s) infinity candidates
  in
  let threshold = worst_score +. (0.9 *. (best_score -. worst_score)) in
  let rec pick = function
    | [] -> fst (List.hd candidates)
    | (r, s) :: rest -> if s >= threshold then r else pick rest
  in
  pick candidates

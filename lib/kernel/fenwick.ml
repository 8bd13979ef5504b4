(* Fenwick (binary-indexed) tree over integer weights, for the walk's
   start-node selection. The alias sampler cannot serve here: start
   nodes are drawn proportionally to their *remaining* occurrence
   counts, which decrement as the walk visits blocks, and an alias
   table is frozen at construction. The Fenwick tree gives O(log n)
   weighted draws and O(log n) decrements instead of an O(n) rescan
   per restart. *)

type t = {
  tree : int array;  (* 1-based partial sums *)
  n : int;
  top_bit : int;  (* largest power of two <= n, for the find descent *)
  mutable total : int;
}

let create weights =
  let n = Array.length weights in
  let tree = Array.make (n + 1) 0 in
  (* O(n) build: add each leaf, push its partial sum to its parent *)
  for i = 1 to n do
    tree.(i) <- tree.(i) + weights.(i - 1);
    let j = i + (i land -i) in
    if j <= n then tree.(j) <- tree.(j) + tree.(i)
  done;
  let top_bit = ref 1 in
  while !top_bit * 2 <= n do
    top_bit := !top_bit * 2
  done;
  { tree; n; top_bit = !top_bit; total = Array.fold_left ( + ) 0 weights }

let total t = t.total

let add t i delta =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.add: index out of range";
  t.total <- t.total + delta;
  let i = ref (i + 1) in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let find t x =
  if x < 1 || x > t.total then invalid_arg "Fenwick.find: rank out of range";
  (* descend from the top bit, keeping the invariant that [idx] is the
     largest prefix whose cumulative weight is < the remaining rank *)
  let idx = ref 0 and rem = ref x and bit = ref t.top_bit in
  while !bit > 0 do
    let next = !idx + !bit in
    if next <= t.n && t.tree.(next) < !rem then begin
      idx := next;
      rem := !rem - t.tree.(next)
    end;
    bit := !bit / 2
  done;
  !idx

type t = {
  sets : int;
  assoc : int;
  block_shift : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (c : Config.Machine.cache) =
  if c.size_bytes <= 0 || c.assoc <= 0 || c.block_bytes <= 0 then
    invalid_arg "Sa_cache.create: non-positive geometry";
  let sets = max 1 (c.size_bytes / (c.block_bytes * c.assoc)) in
  {
    sets;
    assoc = c.assoc;
    block_shift = log2 c.block_bytes;
    tags = Array.make (sets * c.assoc) (-1);
    stamps = Array.make (sets * c.assoc) 0;
    clock = 0;
  }

let sets t = t.sets
let assoc t = t.assoc

let set_of t addr =
  let block = addr lsr t.block_shift in
  block mod t.sets

let tag_of t addr = addr lsr t.block_shift

let find_way t base tag =
  let rec go w =
    if w = t.assoc then -1
    else if t.tags.(base + w) = tag then w
    else go (w + 1)
  in
  go 0

let probe t addr =
  let base = set_of t addr * t.assoc in
  find_way t base (tag_of t addr) >= 0

let access t addr =
  t.clock <- t.clock + 1;
  let base = set_of t addr * t.assoc in
  let tag = tag_of t addr in
  let way = find_way t base tag in
  if way >= 0 then begin
    t.stamps.(base + way) <- t.clock;
    true
  end
  else begin
    (* victim: invalid way if any, else least recently used *)
    let victim = ref 0 in
    for w = 1 to t.assoc - 1 do
      if t.tags.(base + !victim) >= 0
         && (t.tags.(base + w) < 0
            || t.stamps.(base + w) < t.stamps.(base + !victim))
      then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.stamps.(base + !victim) <- t.clock;
    false
  end

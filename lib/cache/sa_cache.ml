type t = {
  sets : int;
  set_mask : int;  (* [sets - 1] when [sets] is a power of two, else -1 *)
  assoc : int;
  block_shift : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  (* the block the last access touched and its index in [tags]: the
     access left it resident, and [probe] changes nothing, so a repeat
     access to it hits there *)
  mutable last_tag : int;
  mutable last_index : int;
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
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc = c.assoc;
    block_shift = log2 c.block_bytes;
    tags = Array.make (sets * c.assoc) (-1);
    stamps = Array.make (sets * c.assoc) 0;
    clock = 0;
    last_tag = -1;
    last_index = 0;
  }

let sets t = t.sets
let assoc t = t.assoc

(* the tag is the whole block number, so equal tags share a set; a
   block number is non-negative, so the mask equals the remainder *)
let[@inline] tag_of t addr = addr lsr t.block_shift

let[@inline] base_of t tag =
  (if t.set_mask >= 0 then tag land t.set_mask else tag mod t.sets) * t.assoc

(* the index in [tags] holding [tag] within the set at [base], or -1;
   a loop rather than a local function, so a search allocates nothing *)
let find t base tag =
  let i = ref base and stop = base + t.assoc in
  while !i < stop && t.tags.(!i) <> tag do
    incr i
  done;
  if !i < stop then !i else -1

let probe t addr =
  let tag = tag_of t addr in
  find t (base_of t tag) tag >= 0

let access t addr =
  t.clock <- t.clock + 1;
  let tag = tag_of t addr in
  if tag = t.last_tag then begin
    t.stamps.(t.last_index) <- t.clock;
    true
  end
  else begin
    let base = base_of t tag in
    let way = find t base tag in
    t.last_tag <- tag;
    if way >= 0 then begin
      t.stamps.(way) <- t.clock;
      t.last_index <- way;
      true
    end
    else begin
      (* victim: invalid way if any, else least recently used *)
      let victim = ref base in
      for i = base + 1 to base + t.assoc - 1 do
        if t.tags.(!victim) >= 0
           && (t.tags.(i) < 0 || t.stamps.(i) < t.stamps.(!victim))
        then victim := i
      done;
      t.tags.(!victim) <- tag;
      t.stamps.(!victim) <- t.clock;
      t.last_index <- !victim;
      false
    end
  end

type t = { cache : Sa_cache.t; penalty : int; page_shift : int }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (c : Config.Machine.tlb) =
  (* Reuse the set-associative store: one "block" per page entry. *)
  let geometry : Config.Machine.cache =
    {
      size_bytes = c.entries;
      assoc = min c.tlb_assoc c.entries;
      block_bytes = 1;
      hit_latency = 0;
    }
  in
  { cache = Sa_cache.create geometry; penalty = c.miss_penalty; page_shift = log2 c.page_bytes }

let access t addr = Sa_cache.access t.cache (addr lsr t.page_shift)
let miss_penalty t = t.penalty

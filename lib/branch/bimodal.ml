type t = { counters : Bytes.t; mask : int }

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Bimodal.create: entries must be a positive power of two";
  (* weakly taken initial state, as in SimpleScalar *)
  { counters = Bytes.make entries '\002'; mask = entries - 1 }

let idx t pc = pc land t.mask

let predict t ~pc = Char.code (Bytes.get t.counters (idx t pc)) >= 2

let update t ~pc ~taken =
  let i = idx t pc in
  let c = Char.code (Bytes.get t.counters i) in
  let c' =
    if taken then (if c >= 3 then 3 else c + 1)
    else if c <= 0 then 0
    else c - 1
  in
  Bytes.set t.counters i (Char.chr c')

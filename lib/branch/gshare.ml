type t = {
  counters : Bytes.t;
  mutable history : int;
  hist_mask : int;
  mask : int;
}

let create ~entries ~hist_bits =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Gshare.create: entries must be a positive power of two";
  if hist_bits <= 0 || hist_bits > 30 then
    invalid_arg "Gshare.create: bad history length";
  {
    counters = Bytes.make entries '\002';
    history = 0;
    hist_mask = (1 lsl hist_bits) - 1;
    mask = entries - 1;
  }

let index t pc = (t.history lxor pc) land t.mask

let predict t ~pc = Char.code (Bytes.get t.counters (index t pc)) >= 2

let update t ~pc ~taken =
  let i = index t pc in
  let c = Char.code (Bytes.get t.counters i) in
  let c' =
    if taken then (if c >= 3 then 3 else c + 1)
    else if c <= 0 then 0
    else c - 1
  in
  Bytes.set t.counters i (Char.chr c');
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land t.hist_mask

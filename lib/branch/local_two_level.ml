type t = {
  histories : int array;
  counters : Bytes.t;
  hist_mask : int;
  l1_mask : int;
  l2_mask : int;
}

let pow2 n = n > 0 && n land (n - 1) = 0

let create ~hist_entries ~pattern_entries ~hist_bits =
  if not (pow2 hist_entries && pow2 pattern_entries) then
    invalid_arg "Local_two_level.create: table sizes must be powers of two";
  if hist_bits <= 0 || hist_bits > 30 then
    invalid_arg "Local_two_level.create: bad history length";
  {
    histories = Array.make hist_entries 0;
    counters = Bytes.make pattern_entries '\002';
    hist_mask = (1 lsl hist_bits) - 1;
    l1_mask = hist_entries - 1;
    l2_mask = pattern_entries - 1;
  }

let pattern_index t pc =
  let hist = t.histories.(pc land t.l1_mask) in
  (hist lxor pc) land t.l2_mask

let predict t ~pc = Char.code (Bytes.get t.counters (pattern_index t pc)) >= 2

let update t ~pc ~taken =
  let i = pattern_index t pc in
  let c = Char.code (Bytes.get t.counters i) in
  let c' =
    if taken then (if c >= 3 then 3 else c + 1)
    else if c <= 0 then 0
    else c - 1
  in
  Bytes.set t.counters i (Char.chr c');
  let h = pc land t.l1_mask in
  t.histories.(h) <-
    ((t.histories.(h) lsl 1) lor if taken then 1 else 0) land t.hist_mask

type t = { slots : int array; mutable top : int; mutable depth : int }

let create ~entries =
  if entries <= 0 then invalid_arg "Ras.create";
  { slots = Array.make entries 0; top = 0; depth = 0 }

let size t = Array.length t.slots

let push t addr =
  t.slots.(t.top) <- addr;
  t.top <- (if t.top + 1 = size t then 0 else t.top + 1);
  if t.depth < size t then t.depth <- t.depth + 1

let pop_matches t addr =
  t.depth > 0
  && begin
       t.top <- (if t.top = 0 then size t - 1 else t.top - 1);
       t.depth <- t.depth - 1;
       t.slots.(t.top) = addr
     end

let copy t = { slots = Array.copy t.slots; top = t.top; depth = t.depth }

type t = { slots : int array; mutable top : int; mutable depth : int }

let create ~entries =
  if entries <= 0 then invalid_arg "Ras.create";
  { slots = Array.make entries 0; top = 0; depth = 0 }

let size t = Array.length t.slots

let push t addr =
  t.slots.(t.top) <- addr;
  t.top <- (t.top + 1) mod size t;
  t.depth <- min (t.depth + 1) (size t)

let pop t =
  if t.depth = 0 then None
  else begin
    t.top <- (t.top + size t - 1) mod size t;
    t.depth <- t.depth - 1;
    Some t.slots.(t.top)
  end

let copy t = { slots = Array.copy t.slots; top = t.top; depth = t.depth }

type t = {
  sets : int;
  set_mask : int;  (* [sets - 1] when [sets] is a power of two, else -1 *)
  assoc : int;
  tags : int array;
  targets : int array;
  stamps : int array;
  mutable clock : int;
}

let create ~sets ~assoc =
  if sets <= 0 || assoc <= 0 then invalid_arg "Btb.create";
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc;
    tags = Array.make (sets * assoc) (-1);
    targets = Array.make (sets * assoc) 0;
    stamps = Array.make (sets * assoc) 0;
    clock = 0;
  }

(* PCs are non-negative, so the mask equals the remainder *)
let[@inline] base_of t pc =
  (if t.set_mask >= 0 then pc land t.set_mask else pc mod t.sets) * t.assoc

(* the index in [tags] holding [pc] within the set at [base], or -1; a
   loop rather than a local function, so a search allocates nothing *)
let find t base pc =
  let i = ref base and stop = base + t.assoc in
  while !i < stop && t.tags.(!i) <> pc do
    incr i
  done;
  if !i < stop then !i else -1

let predicts t ~pc ~target =
  let i = find t (base_of t pc) pc in
  i >= 0
  && begin
       t.clock <- t.clock + 1;
       t.stamps.(i) <- t.clock;
       t.targets.(i) = target
     end

let update t ~pc ~target =
  t.clock <- t.clock + 1;
  let base = base_of t pc in
  let i = find t base pc in
  let i =
    if i >= 0 then i
    else begin
      let victim = ref base in
      for j = base + 1 to base + t.assoc - 1 do
        if t.tags.(!victim) >= 0
           && (t.tags.(j) < 0 || t.stamps.(j) < t.stamps.(!victim))
        then victim := j
      done;
      !victim
    end
  in
  t.tags.(i) <- pc;
  t.targets.(i) <- target;
  t.stamps.(i) <- t.clock

type direction =
  | D_hybrid of {
      meta : Bimodal.t;  (* 2-bit chooser: >=2 selects the two-level side *)
      bimodal : Bimodal.t;
      local : Local_two_level.t;
    }
  | D_gshare of Gshare.t
  | D_bimodal of Bimodal.t

type t = {
  dir : direction;
  btb : Btb.t;
  mutable ras : Ras.t;
}

type resolution = Correct | Fetch_redirect | Mispredict

let resolution_to_string = function
  | Correct -> "correct"
  | Fetch_redirect -> "fetch_redirect"
  | Mispredict -> "mispredict"

let create (c : Config.Machine.bpred) =
  let dir =
    match c.kind with
    | Config.Machine.Hybrid_local ->
      D_hybrid
        {
          meta = Bimodal.create ~entries:c.meta_entries;
          bimodal = Bimodal.create ~entries:c.bimodal_entries;
          local =
            Local_two_level.create ~hist_entries:c.local_hist_entries
              ~pattern_entries:c.local_pattern_entries
              ~hist_bits:c.local_hist_bits;
        }
    | Config.Machine.Gshare ->
      D_gshare
        (Gshare.create ~entries:c.local_pattern_entries
           ~hist_bits:c.local_hist_bits)
    | Config.Machine.Bimodal_only ->
      D_bimodal (Bimodal.create ~entries:c.bimodal_entries)
  in
  {
    dir;
    btb = Btb.create ~sets:c.btb_sets ~assoc:c.btb_assoc;
    ras = Ras.create ~entries:c.ras_entries;
  }

let predict_direction t pc =
  match t.dir with
  | D_hybrid { meta; bimodal; local } ->
    if Bimodal.predict meta ~pc then Local_two_level.predict local ~pc
    else Bimodal.predict bimodal ~pc
  | D_gshare g -> Gshare.predict g ~pc
  | D_bimodal b -> Bimodal.predict b ~pc

let classify t ~pc ~(branch : Isa.Dyn_inst.branch) =
  match branch.kind with
  | Cond ->
    let dir = predict_direction t pc in
    if dir <> branch.taken then Mispredict
    else if branch.taken && not (Btb.predicts t.btb ~pc ~target:branch.target)
    then
      Fetch_redirect
    else Correct
  | Jump | Call ->
    if Btb.predicts t.btb ~pc ~target:branch.target then Correct
    else Fetch_redirect
  | Return ->
    if Ras.pop_matches t.ras branch.target then Correct else Mispredict
  | Indirect ->
    if Btb.predicts t.btb ~pc ~target:branch.target then Correct
    else Mispredict

let lookup t ~pc ~branch =
  let r = classify t ~pc ~branch in
  (* speculative RAS push at fetch for calls (pop happens in classify) *)
  (match branch.kind with
  | Call -> Ras.push t.ras branch.next_pc
  | Cond | Jump | Return | Indirect -> ());
  r

let update t ~pc ~(branch : Isa.Dyn_inst.branch) =
  (match branch.kind with
  | Cond -> (
    match t.dir with
    | D_hybrid { meta; bimodal; local } ->
      (* Train the chooser with the components' current opinions; when
         they disagree, move it toward whichever was right. *)
      let bim = Bimodal.predict bimodal ~pc in
      let loc = Local_two_level.predict local ~pc in
      if bim <> loc then Bimodal.update meta ~pc ~taken:(loc = branch.taken);
      Bimodal.update bimodal ~pc ~taken:branch.taken;
      Local_two_level.update local ~pc ~taken:branch.taken
    | D_gshare g -> Gshare.update g ~pc ~taken:branch.taken
    | D_bimodal b -> Bimodal.update b ~pc ~taken:branch.taken)
  | Jump | Call | Return | Indirect -> ());
  if branch.taken && branch.kind <> Return then
    Btb.update t.btb ~pc ~target:branch.target

let ras_copy t = Ras.copy t.ras
let ras_restore t ras = t.ras <- Ras.copy ras

type blocks = (int * int list) list

let det_or_chain zs =
  let rec go = function
    | [] -> Circuit.cfalse
    | [ z ] -> Circuit.cvar z
    | z :: rest ->
      Circuit.cor_det
        [ Circuit.cvar z;
          Circuit.cand [ Circuit.cnot (Circuit.cvar z); go rest ] ]
  in
  go zs

(* Negated occurrences get the paper's direct form ¬Z_1 ∧ ... ∧ ¬Z_l
   rather than a ¬-gate over the chain; both are correct, this one matches
   Lemma 9's construction. *)
let neg_chain zs =
  Circuit.cand (List.map (fun z -> Circuit.cnot (Circuit.cvar z)) zs)

let or_subst ?universe ~widths root =
  let cvars = Circuit.vars root in
  let universe =
    match universe with
    | None -> cvars
    | Some u ->
      if not (Vset.subset cvars u) then
        invalid_arg "Or_subst: universe misses circuit variables";
      u
  in
  let supply = Fresh.make ~avoid:universe in
  let block_tbl = Hashtbl.create 16 in
  let blocks = ref [] in
  Vset.iter
    (fun v ->
       let w = widths v in
       if w < 0 then invalid_arg "Or_subst: negative width";
       let zs = Fresh.fresh_block supply w in
       Hashtbl.replace block_tbl v zs;
       blocks := (v, zs) :: !blocks)
    universe;
  let memo = Hashtbl.create 64 in
  let rec go (g : Circuit.node) =
    match Hashtbl.find_opt memo g.id with
    | Some h -> h
    | None ->
      let h =
        match g.gate with
        | Circuit.Ctrue | Circuit.Cfalse -> g
        | Circuit.Cvar v -> det_or_chain (Hashtbl.find block_tbl v)
        | Circuit.Cnot { gate = Circuit.Cvar v; _ } ->
          neg_chain (Hashtbl.find block_tbl v)
        | Circuit.Cnot x -> Circuit.cnot (go x)
        | Circuit.Cand gs -> Circuit.cand (List.map go gs)
        | Circuit.Cor (Circuit.Deterministic, gs) ->
          Circuit.cor_det (List.map go gs)
        | Circuit.Cor (Circuit.Disjoint, gs) ->
          Circuit.cor_disj (List.map go gs)
      in
      Hashtbl.replace memo g.id h;
      h
  in
  let root' = go root in
  (* Pre/post gate counts witness Lemma 9's O(|G| + k·ℓ) bound; sizes are
     only computed when someone is observing. *)
  if Obs.observing () then
    Obs.record_subst ~kind:"circuit.or" ~pre:(Circuit.size root)
      ~post:(Circuit.size root')
      ~fresh:(List.fold_left (fun acc (_, zs) -> acc + List.length zs) 0 !blocks)
      ~width:
        (List.fold_left (fun acc (_, zs) -> max acc (List.length zs)) (-1)
           !blocks)
      ();
  (root', List.rev !blocks)

let uniform_or ?universe ~l g = or_subst ?universe ~widths:(fun _ -> l) g

let uniform_or_except ?universe ~l ~keep g =
  let g', blocks =
    or_subst ?universe ~widths:(fun v -> if v = keep then 1 else l) g
  in
  match List.assoc_opt keep blocks with
  | Some [ z ] -> (g', z, blocks)
  | Some _ -> assert false
  | None -> invalid_arg "Or_subst.uniform_or_except: variable not in universe"

let isomorphic_copy ?universe g = or_subst ?universe ~widths:(fun _ -> 1) g

let zap ?universe ~zero g =
  or_subst ?universe ~widths:(fun v -> if Vset.mem v zero then 0 else 1) g

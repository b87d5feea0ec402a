type blocks = (int * int list) list

let apply theta f = Formula.map_var theta f

(* Shared driver: each universe variable gets a block of fresh variables,
   combined by [combine] (disjunction for OR-substitution, conjunction for
   AND-substitution).  Blocks are allocated deterministically in ascending
   order of the original variable. *)
let block_subst ?universe ~kind ~combine ~widths f =
  let fvars = Formula.vars f in
  let universe =
    match universe with
    | None -> fvars
    | Some u ->
      if not (Vset.subset fvars u) then
        invalid_arg "Subst: universe misses variables of the formula";
      u
  in
  let supply = Fresh.make ~avoid:universe in
  let blocks =
    List.map
      (fun v ->
         let w = widths v in
         if w < 0 then invalid_arg "Subst: negative width";
         (v, Fresh.fresh_block supply w))
      (Vset.elements universe)
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (v, zs) -> Hashtbl.replace table v (combine (List.map Formula.var zs)))
    blocks;
  let theta v =
    match Hashtbl.find_opt table v with
    | Some g -> g
    | None -> Formula.var v
  in
  let g = apply theta f in
  if Obs.observing () then
    Obs.record_subst ~kind ~pre:(Formula.size f) ~post:(Formula.size g)
      ~fresh:(List.fold_left (fun acc (_, zs) -> acc + List.length zs) 0 blocks)
      ~width:
        (List.fold_left (fun acc (_, zs) -> max acc (List.length zs)) (-1)
           blocks)
      ();
  (g, blocks)

let or_subst ?universe ~widths f =
  block_subst ?universe ~kind:"formula.or" ~combine:Formula.or_ ~widths f

let uniform_or ?universe ~l f = or_subst ?universe ~widths:(fun _ -> l) f

let uniform_and ?universe ~l f =
  block_subst ?universe ~kind:"formula.and" ~combine:Formula.and_
    ~widths:(fun _ -> l) f

let uniform_or_except ?universe ~l ~keep f =
  let g, blocks =
    or_subst ?universe ~widths:(fun v -> if v = keep then 1 else l) f
  in
  match List.assoc_opt keep blocks with
  | Some [ z ] -> (g, z, blocks)
  | Some _ -> assert false
  | None -> invalid_arg "Subst.uniform_or_except: variable not in universe"

let isomorphic_copy ?universe f = or_subst ?universe ~widths:(fun _ -> 1) f

let zap ?universe ~zero f =
  or_subst ?universe ~widths:(fun v -> if Vset.mem v zero then 0 else 1) f

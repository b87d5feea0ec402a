type blocks = (int * int list) list

let apply theta f = Formula.map_var theta f

(* Definition 1 for every class of functions: each universe variable, in
   ascending order, gets a block of [widths v] fresh variables, and
   [install] builds the substituted function from the blocks. *)
let block_subst ~who ~noun ~kind ~vars ~size ~install ?universe ~widths x =
  let universe =
    match universe with
    | None -> vars x
    | Some u ->
      if not (Vset.subset (vars x) u) then
        invalid_arg (Printf.sprintf "%s: universe misses %s" who noun);
      u
  in
  let supply = Fresh.make ~avoid:universe in
  let blocks =
    List.map
      (fun v ->
         let w = widths v in
         if w < 0 then invalid_arg (who ^ ": negative width");
         (v, Fresh.fresh_block supply w))
      (Vset.elements universe)
  in
  let y = install blocks x in
  if Obs.observing () then
    Obs.record_subst ~kind ~pre:(size x) ~post:(size y)
      ~fresh:(List.fold_left (fun acc (_, zs) -> acc + List.length zs) 0 blocks)
      ~width:
        (List.fold_left (fun acc (_, zs) -> max acc (List.length zs)) (-1)
           blocks)
      ();
  (y, blocks)

(* On formulas a block becomes [combine] of its variables (disjunction
   for OR-substitution, conjunction for AND-substitution), built once. *)
let formula_subst ~kind ~combine =
  block_subst ~who:"Subst" ~noun:"variables of the formula" ~kind
    ~vars:Formula.vars ~size:Formula.size ~install:(fun blocks f ->
      let table = Hashtbl.create 16 in
      List.iter
        (fun (v, zs) ->
           Hashtbl.replace table v (combine (List.map Formula.var zs)))
        blocks;
      apply
        (fun v ->
           match Hashtbl.find_opt table v with
           | Some g -> g
           | None -> Formula.var v)
        f)

let or_subst ?universe ~widths f =
  formula_subst ~kind:"formula.or" ~combine:Formula.or_ ?universe ~widths f

let uniform_or ?universe ~l f = or_subst ?universe ~widths:(fun _ -> l) f

let uniform_and ?universe ~l f =
  formula_subst ~kind:"formula.and" ~combine:Formula.and_ ?universe
    ~widths:(fun _ -> l) f

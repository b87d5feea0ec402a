type clause = { pos : Vset.t; neg : Vset.t }
type pdnf = Vset.t list

let clause ~pos ~neg =
  let pos = Vset.of_list pos and neg = Vset.of_list neg in
  if not (Vset.disjoint pos neg) then
    invalid_arg "Nf.clause: overlapping positive and negative literals";
  { pos; neg }

let literals_of_clause c =
  List.map Formula.var (Vset.elements c.pos)
  @ List.map (fun v -> Formula.not_ (Formula.var v)) (Vset.elements c.neg)

let cnf_to_formula cs =
  Formula.and_ (List.map (fun c -> Formula.or_ (literals_of_clause c)) cs)

let dnf_to_formula cs =
  Formula.or_ (List.map (fun c -> Formula.and_ (literals_of_clause c)) cs)

let pdnf_to_formula d =
  Formula.or_
    (List.map
       (fun c -> Formula.and_ (List.map Formula.var (Vset.elements c)))
       d)

let pdnf_vars d = List.fold_left Vset.union Vset.empty d
let pdnf_eval d s = List.exists (fun c -> Vset.subset c s) d

let pdnf_minimize d =
  let keep c =
    not (List.exists (fun c' -> (not (Vset.equal c c')) && Vset.subset c' c) d)
  in
  List.sort_uniq Vset.compare (List.filter keep d)

let bipartite ~edges =
  let left i = 2 * i and right j = (2 * j) + 1 in
  let d =
    List.map (fun (i, j) -> Vset.of_list [ left i; right j ]) edges
  in
  (d, left, right)

let rec is_positive f =
  match Formula.view f with
  | Formula.True | Formula.False | Formula.Var _ -> true
  | Formula.Not _ -> false
  | Formula.And fs | Formula.Or fs -> List.for_all is_positive fs

(* Distribute ∧ over ∨ bottom-up.  Each subformula yields the pdnf of its
   models' minimal witnesses; And takes pairwise unions (cartesian), Or
   concatenates.  Absorption keeps intermediate results small where
   possible. *)
let formula_to_pdnf f =
  let rec go f =
    match Formula.view f with
    | Formula.True -> [ Vset.empty ]
    | Formula.False -> []
    | Formula.Var v -> [ Vset.singleton v ]
    | Formula.Not _ -> invalid_arg "Nf.formula_to_pdnf: negation"
    | Formula.Or fs -> pdnf_minimize (List.concat_map go fs)
    | Formula.And fs ->
      List.fold_left
        (fun acc g ->
           let dg = go g in
           pdnf_minimize
             (List.concat_map (fun c -> List.map (Vset.union c) dg) acc))
        [ Vset.empty ] fs
  in
  pdnf_minimize (go f)

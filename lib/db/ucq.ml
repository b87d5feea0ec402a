type t = { disjuncts : Cq.t list }

let make disjuncts =
  if disjuncts = [] then invalid_arg "Ucq.make: empty union";
  { disjuncts }

let lineage db u =
  List.sort_uniq Vset.compare
    (List.concat_map (fun q -> Lineage.lineage db q) u.disjuncts)

let lineage_formula db u = Nf.pdnf_to_formula (lineage db u)

type solver = Disjoint_safe_plans | Compiled_union

(* The polynomial sufficient case: every disjunct is on the tractable
   side of the dichotomy (positive, hierarchical, self-join-free), and no
   endogenous relation is shared between two disjuncts — then the
   disjunct lineages are variable-disjoint and the union is a disjoint OR
   of safe-plan circuits. *)
let disjoint_safe db u =
  let endogenous_relations q =
    List.sort_uniq compare
      (List.filter_map
         (fun (a : Cq.atom) ->
            match Database.kind_of db a.Cq.rel with
            | Database.Endogenous -> Some a.Cq.rel
            | Database.Exogenous -> None)
         q.Cq.atoms)
  in
  let ok_each =
    List.for_all
      (fun q -> Dichotomy.classify q = Dichotomy.Hierarchical)
      u.disjuncts
  in
  let rec pairwise_disjoint = function
    | [] -> true
    | rels :: rest ->
      List.for_all
        (fun rels' -> List.for_all (fun r -> not (List.mem r rels')) rels)
        rest
      && pairwise_disjoint rest
  in
  ok_each && pairwise_disjoint (List.map endogenous_relations u.disjuncts)

let circuit db u =
  if disjoint_safe db u then
    ( Circuit.cor_disj
        (List.map (fun q -> Safe_plan.lineage_circuit db q) u.disjuncts),
      Disjoint_safe_plans )
  else (Compile.compile (lineage_formula db u), Compiled_union)

let shapley db u =
  let c, solver = circuit db u in
  let universe = Vset.elements (Database.lineage_vars db) in
  (Circuit_shapley.shap_direct ~vars:universe c, solver)

let probability db u ~weights =
  let c, _ = circuit db u in
  Prob.probability ~weights c

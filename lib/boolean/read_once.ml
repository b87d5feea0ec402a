type tree = Leaf of int | And of tree list | Or of tree list

let tree_to_formula t =
  let rec go = function
    | Leaf v -> Formula.var v
    | And ts -> Formula.and_ (List.map go ts)
    | Or ts -> Formula.or_ (List.map go ts)
  in
  go t

let rec tree_vars = function
  | Leaf v -> Vset.singleton v
  | And ts | Or ts ->
    List.fold_left (fun acc t -> Vset.union acc (tree_vars t)) Vset.empty ts

(* Components of the complement of the co-occurrence graph (for
   AND-decomposition).  A variable's keys are itself and every variable
   no clause holds together with it, so two variables share a key
   exactly when they are adjacent or have a common neighbour in the
   complement: the components of {!Vset.components} over the keys are
   the complement's, and each group's scope is its part. *)
let complement_components vars clauses =
  let co_occur u v =
    List.exists (fun c -> Vset.mem u c && Vset.mem v c) clauses
  in
  let keys u = Vset.filter (fun v -> u = v || not (co_occur u v)) vars in
  List.map fst (Vset.components ~vars:keys (Vset.elements vars))

exception Not_read_once

let factor d =
  let d = Nf.pdnf_minimize d in
  if d = [] then invalid_arg "Read_once.factor: constant false";
  if List.exists Vset.is_empty d then
    invalid_arg "Read_once.factor: constant true";
  let rec go clauses =
    match clauses with
    | [] -> assert false
    | [ c ] when Vset.cardinal c = 1 -> Leaf (Vset.min_elt c)
    | _ ->
      (match Vset.components ~vars:Fun.id clauses with
       | [] -> assert false
       | _ :: _ :: _ as groups ->
         (* variable-disjoint alternatives: OR node *)
         Or (List.map (fun (_, cs) -> go cs) groups)
       | [ (vars, _) ] ->
         (* connected: try AND-decomposition via co-occurrence complement *)
         (match complement_components vars clauses with
          | [] | [ _ ] -> raise Not_read_once
          | parts ->
            (* project clauses on each part and verify the product law *)
            let projections =
              List.map
                (fun part ->
                   (part,
                    List.sort_uniq Vset.compare
                      (List.map (fun c -> Vset.inter c part) clauses)))
                parts
            in
            List.iter
              (fun (_, proj) ->
                 if List.exists Vset.is_empty proj then raise Not_read_once)
              projections;
            let product_size =
              List.fold_left (fun acc (_, p) -> acc * List.length p) 1
                projections
            in
            if product_size <> List.length clauses then raise Not_read_once;
            (* every combination of projections must be a clause *)
            let clause_set = List.sort_uniq Vset.compare clauses in
            let rec combos acc = function
              | [] -> [ acc ]
              | (_, proj) :: rest ->
                List.concat_map
                  (fun p -> combos (Vset.union acc p) rest)
                  proj
            in
            let all = List.sort_uniq Vset.compare (combos Vset.empty projections) in
            if not (List.equal Vset.equal all clause_set) then
              raise Not_read_once;
            And (List.map (fun (_, proj) -> go proj) projections)))
  in
  try Some (go d) with Not_read_once -> None

let is_read_once d = factor d <> None

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
   AND-decomposition): u, v in the same part iff NOT every clause-pair
   separates them... concretely, u ~ v in the complement iff u and v do
   not co-occur in any clause; we need the transitive components. *)
let complement_components vars clauses =
  let vars = Vset.elements vars in
  let co_occur u v =
    List.exists (fun c -> Vset.mem u c && Vset.mem v c) clauses
  in
  (* union-find over vars, joining pairs that do NOT co-occur *)
  let parent = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace parent v v) vars;
  let rec find v =
    let p = Hashtbl.find parent v in
    if p = v then v
    else begin
      let r = find p in
      Hashtbl.replace parent v r;
      r
    end
  in
  let union u v =
    let ru = find u and rv = find v in
    if ru <> rv then Hashtbl.replace parent ru rv
  in
  let rec pairs = function
    | [] -> ()
    | u :: rest ->
      List.iter (fun v -> if not (co_occur u v) then union u v) rest;
      pairs rest
  in
  pairs vars;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun v ->
       let r = find v in
       Hashtbl.replace groups r
         (Vset.add v (Option.value ~default:Vset.empty (Hashtbl.find_opt groups r))))
    vars;
  Hashtbl.fold (fun _ g acc -> g :: acc) groups []

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

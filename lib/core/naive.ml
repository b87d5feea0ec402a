let max_perm_vars = 8

let check ~vars f =
  ignore
    (Vset.universe ~who:"Naive" ~noun:"variables of the formula" ~vars
       (Formula.vars f))

(* All permutations of a list, in lexicographic order of positions. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
         let rest = List.filter (fun y -> y <> x) l in
         List.map (fun p -> x :: p) (permutations rest))
      (List.sort compare l)

let marginal f prefix i =
  let before = Vset.of_list prefix in
  let with_i = Formula.eval_set (Vset.add i before) f in
  let without = Formula.eval_set before f in
  Bool.to_int with_i - Bool.to_int without

let permutation_table ~vars f =
  check ~vars f;
  if List.length vars > max_perm_vars then
    invalid_arg "Naive.permutation_table: too many variables";
  let sorted_vars = List.sort compare vars in
  List.map
    (fun pi ->
       let row =
         List.map
           (fun i ->
              let rec prefix acc = function
                | [] -> assert false
                | j :: rest -> if j = i then List.rev acc else prefix (j :: acc) rest
              in
              marginal f (prefix [] pi) i)
           sorted_vars
       in
       (pi, row))
    (permutations vars)

let shap_permutations ~vars f =
  check ~vars f;
  let n = List.length vars in
  if n > max_perm_vars then
    invalid_arg "Naive.shap_permutations: too many variables";
  let sorted_vars = List.sort compare vars in
  let totals = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace totals i 0) sorted_vars;
  List.iter
    (fun pi ->
       (* Walk the permutation once, accumulating each variable's marginal. *)
       let rec walk prefix = function
         | [] -> ()
         | i :: rest ->
           let d = marginal f prefix i in
           Hashtbl.replace totals i (Hashtbl.find totals i + d);
           walk (i :: prefix) rest
       in
       walk [] pi)
    (permutations vars);
  let nfact = Combi.factorial n in
  List.map
    (fun i -> (i, Rat.make (Bigint.of_int (Hashtbl.find totals i)) nfact))
    sorted_vars

let shap_subsets ~vars f =
  check ~vars f;
  let n = List.length vars in
  let sorted_vars = List.sort compare vars in
  List.map
    (fun i ->
       let others = List.filter (fun v -> v <> i) sorted_vars in
       let k1 = Brute.count_by_size ~vars:others (Formula.restrict i true f) in
       let k0 = Brute.count_by_size ~vars:others (Formula.restrict i false f) in
       (i,
        Combi.shapley_of_diffs ~n (fun k ->
            Bigint.sub (Kvec.get k1 k) (Kvec.get k0 k))))
    sorted_vars

let shap_sum shap = List.fold_left (fun acc (_, v) -> Rat.add acc v) Rat.zero shap

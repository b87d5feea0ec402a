type entry = {
  lvar : int;
  relation : string;
  tuple : Value.t array;
  value : Rat.t;
}

type report = {
  query : Cq.t;
  answer : bool;
  solver : Dichotomy.solver;
  entries : entry list;
}

let explain db q =
  let shap, solver = Dichotomy.shapley db q in
  let entries =
    shap
    |> List.map (fun (lvar, value) ->
        let relation, tuple = Database.tuple_of_var db lvar in
        { lvar; relation; tuple; value })
    |> List.sort (fun a b -> Rat.compare b.value a.value)
  in
  { query = q; answer = Lineage.boolean_answer db q; solver; entries }

let top_k report k = List.filteri (fun i _ -> i < k) report.entries

let total report =
  List.fold_left (fun acc e -> Rat.add acc e.value) Rat.zero report.entries

let pp_entry ppf e =
  Format.fprintf ppf "%s(%s)  %s (~ %.6f)" e.relation
    (String.concat ", " (List.map Value.to_string (Array.to_list e.tuple)))
    (Rat.to_string e.value) (Rat.to_float e.value)

let pp ppf report =
  Format.fprintf ppf "query: %a@\n" Cq.pp report.query;
  Format.fprintf ppf "answer: %b@\n" report.answer;
  Format.fprintf ppf "solver: %s@\n"
    (match report.solver with
     | Dichotomy.Safe_plan_circuit -> "safe-plan circuit (polynomial)"
     | Dichotomy.Compiled_dnf -> "compiled lineage (exponential worst case)");
  Format.fprintf ppf "tuple contributions, most influential first:@\n";
  List.iter (fun e -> Format.fprintf ppf "  %a@\n" pp_entry e) report.entries;
  Format.fprintf ppf "  sum = %s (Prop. 5)@\n" (Rat.to_string (total report))

(* Attribution-score tour: Shapley vs Banzhaf vs SHAP score vs sampling.

   A toy loan-approval classifier over five Boolean features shows how
   the paper's Shapley-of-variables relates to the other attribution
   notions its related-work section discusses — including the exact sense
   in which the SHAP score generalizes it (entity all-ones, distribution
   all-zeros) and the sense in which it does not (p = 1/2).

   Run with:  dune exec examples/scores_tour.exe *)

let () = print_endline "=== Attribution scores on a toy classifier ===\n"

(* approve = (income & employed) | (guarantor & !blacklisted) | vip *)
let classifier, names =
  Parser.formula_of_string
    "(income & employed) | (guarantor & !blacklisted) | vip"

let vars = List.map fst names
let name i = List.assoc i names
let circuit = Compile.compile classifier

let print_scores label scores =
  Printf.printf "%-28s" label;
  List.iter
    (fun (i, v) -> Printf.printf " %s=%s" (name i) (Rat.to_string v))
    scores;
  print_newline ()

let () =
  Printf.printf "classifier: %s\n" (Formula.to_string classifier);
  Printf.printf "models: %s of %s\n\n"
    (Bigint.to_string (Dpll.count_universe ~vars classifier))
    (Bigint.to_string (Combi.pow2 (List.length vars)));
  print_scores "Shapley (this paper):"
    (Circuit_shapley.shap_direct ~vars circuit);
  print_scores "Banzhaf:" (Power_indices.banzhaf_circuit ~vars circuit);
  print_scores "SHAP (e=1, p=1/2):"
    (Prob.shap_score ~weights:Prob.uniform_half ~entity:(fun _ -> true) ~vars
       circuit);
  print_scores "SHAP (e=1, p=0):"
    (Prob.shap_score ~weights:(fun _ -> Rat.zero) ~entity:(fun _ -> true)
       ~vars circuit);
  print_endline
    "\n(SHAP at e=1, p=0 reproduces the Shapley value exactly; p=1/2 does\n\
     not — the distinction the paper's related-work section insists on.)"

(* A specific applicant: explain the decision for their feature vector. *)
let () =
  print_endline "\n--- Explaining one applicant ---";
  (* income=1, employed=0, guarantor=1, blacklisted=0, vip=0 *)
  let entity_map =
    [ ("income", true); ("employed", false); ("guarantor", true);
      ("blacklisted", false); ("vip", false) ]
  in
  let entity i = List.assoc (name i) entity_map in
  Printf.printf "applicant: %s\n"
    (String.concat ", "
       (List.map (fun (n, b) -> Printf.sprintf "%s=%b" n b) entity_map));
  Printf.printf "decision: %b\n"
    (Formula.eval (fun i -> entity i) classifier);
  let weights _ = Rat.of_ints 1 2 in
  print_scores "SHAP for this applicant:"
    (Prob.shap_score ~weights ~entity ~vars circuit);
  print_endline
    "(positive score = pushes toward approval relative to the population)"

(* Interaction indices: which feature pairs work together? *)
let () =
  print_endline "\n--- Pairwise Shapley interactions ---";
  let pairs = [ (1, 2); (3, 4); (1, 5) ] in
  List.iter
    (fun (i, j) ->
       let v = Circuit_shapley.interaction ~vars circuit i j in
       Printf.printf "  I(%s, %s) = %-8s (%s)\n" (name i) (name j)
         (Rat.to_string v)
         (match Rat.sign v with
          | s when s > 0 -> "complementary"
          | 0 -> "independent"
          | _ -> "substitutive"))
    pairs

(* Approximation: how many samples to get close to exact Shapley. *)
let () =
  print_endline "\n--- Monte-Carlo approximation ---";
  let exact = Circuit_shapley.shap_direct ~vars circuit in
  Printf.printf "Hoeffding bound for eps=0.05, delta=0.05: %d samples\n"
    (Sampling.samples_for ~eps:0.05 ~delta:0.05);
  List.iter
    (fun m ->
       let est =
         (Sampling.shap_estimate ~seed:1 ~max_samples:m ~vars classifier)
           .Sampling.estimates
       in
       let worst =
         List.fold_left
           (fun acc e ->
              let truth = Rat.to_float (List.assoc e.Sampling.variable exact) in
              Float.max acc (Float.abs (e.Sampling.value -. truth)))
           0.0 est
       in
       Printf.printf "  %6d samples: max error %.5f\n" m worst)
    [ 100; 1000; 10000 ]

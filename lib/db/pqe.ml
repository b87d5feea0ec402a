let probability db q ~weights =
  Prob.probability ~weights (fst (Dichotomy.circuit db q))

let uniform_probability db q ~theta =
  probability db q ~weights:(fun _ -> theta)

let shapley_via_pqe db q =
  let universe = Vset.elements (Database.lineage_vars db) in
  let f = Lineage.lineage_formula db q in
  (* PQE oracle at the lineage level: conditionings of the lineage are
     themselves PQE instances (present tuple = probability 1, absent
     tuple = probability 0), so serve them on the compiled circuit of
     the restricted lineage. *)
  let oracle =
    Pipeline.
      {
        pqe_name = "db-pqe";
        prob =
          (fun ~theta ~vars g ->
             ignore vars;
             Prob.probability ~weights:(fun _ -> theta) (Compile.compile g));
      }
  in
  Pipeline.shap_via_pqe_oracle ~oracle ~vars:universe f

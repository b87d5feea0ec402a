let encode (inst : Bipartite.t) =
  let db = Database.create () in
  Stretch.declare_q0_schema db;
  (* Left part first so that lineage variables 1..a are the x_i and
     a+1..a+b the y_j. *)
  for i = 0 to inst.Bipartite.a - 1 do
    ignore (Database.insert db "R" [| Value.int i |])
  done;
  for j = 0 to inst.Bipartite.b - 1 do
    ignore (Database.insert db "T" [| Value.int j |])
  done;
  List.iter
    (fun (i, j) ->
       ignore (Database.insert db "S" [| Value.int i; Value.int j |]))
    inst.Bipartite.edges;
  (db, Stretch.q0 ())

type q0_shapley_oracle = Database.t -> (int * Rat.t) list

(* Q0 is non-hierarchical, so the dichotomy compiles its lineage: the
   exponential part, exactly where Theorem 5.1 says the cost must live. *)
let reference_oracle db = fst (Dichotomy.shapley db (Stretch.q0 ()))

(* Q0 lineages as a class closed under OR-substitution (Claim 5.2): the
   substituted lineage is Q0's own lineage over a transformed database.
   Appendix B.2.2 gives a block to every endogenous tuple, which is the
   whole universe, so the chain's [universe] adds nothing. *)
let q0_lineages =
  Pipeline.
    {
      or_subst =
        (fun ~universe:_ ~widths db -> Stretch.or_substituted_q0_db ~widths db);
      vars = Database.lineage_vars;
      at_zero =
        (fun db ->
           Formula.eval_set Vset.empty
             (Lineage.lineage_formula db (Stretch.q0 ())));
    }

let count_via_q0_shapley ~oracle inst =
  let db, _ = encode inst in
  Kvec.total
    (Pipeline.kcounts_via_shap q0_lineages ~shap:(fun ~l:_ ~vars:_ -> oracle)
       ~vars:(Vset.elements (Database.lineage_vars db)) db)

let oracle_calls (inst : Bipartite.t) =
  let n = inst.Bipartite.a + inst.Bipartite.b in
  n * n

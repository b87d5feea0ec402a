type classification =
  | Hierarchical
  | Non_hierarchical of string * string
  | Has_self_joins
  | Has_negation

type solver = Safe_plan_circuit | Compiled_dnf

let classify q =
  if not (Cq.is_positive q) then Has_negation
  else if not (Cq.is_self_join_free q) then Has_self_joins
  else begin
    match Cq.witness_non_hierarchical q with
    | None -> Hierarchical
    | Some (x, y) -> Non_hierarchical (x, y)
  end

(* The Theorem 5.1 dispatch every entry point shares: the solver that
   serves [q] and a thunk building its circuit. *)
let dispatch db q =
  match classify q with
  | Hierarchical ->
    (Safe_plan_circuit, fun () -> Safe_plan.lineage_circuit db q)
  | Non_hierarchical _ | Has_self_joins | Has_negation ->
    (Compiled_dnf, fun () -> Compile.compile (Lineage.lineage_formula db q))

let universe db = Vset.elements (Database.lineage_vars db)

let shapley db q =
  let solver, build = dispatch db q in
  (Circuit_shapley.shap_direct ~vars:(universe db) (build ()), solver)

let shapley_cached ?(on_miss = fun solve -> solve ()) ?render ~cache db q =
  let solver, build = dispatch db q in
  let ctags =
    List.map (Db_fingerprint.relation_tag db) (Db_fingerprint.mentioned q)
  in
  let solve () =
    let universe = universe db in
    (* Tier 1: the compiled circuit depends only on the mentioned
       relations, so it survives (and keeps hitting) across mutations
       of unrelated relations that still change the result key. *)
    let suffix =
      match solver with Safe_plan_circuit -> "/safe" | Compiled_dnf -> "/dnf"
    in
    let g =
      Cache.circuit cache ~key:(Db_fingerprint.lineage_key db q ^ suffix)
        ~tags:ctags (fun () ->
          Obs.call ~oracle:"cache.compile" ~n:(List.length universe)
            ~attrs:[ ("query", Trace.Str (Cq.to_string q)) ]
            build)
    in
    Circuit_shapley.shap_direct ~vars:universe g
  in
  let answer =
    Cache.shapley_all cache ~key:(Db_fingerprint.result_key db q)
      ~tags:(Db_fingerprint.db_tag db :: ctags)
      ?render
      (fun () -> on_miss solve)
  in
  (answer, solver)

let invalidate ~cache db rel =
  let dropped = Cache.invalidate_tag cache (Db_fingerprint.relation_tag db rel) in
  (* An endogenous mutation changes the player universe, so every cached
     full answer of this database is stale — circuits of untouched
     relations stay valid. *)
  match Database.kind_of db rel with
  | Database.Endogenous ->
    dropped + Cache.invalidate_tag cache (Db_fingerprint.db_tag db)
  | Database.Exogenous -> dropped

let shapley_brute db q =
  Naive.shap_subsets ~vars:(universe db) (Lineage.lineage_formula db q)

let count_models db q =
  let solver, build = dispatch db q in
  (Count.count ~vars:(universe db) (build ()), solver)

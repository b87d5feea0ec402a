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

let compiled_circuit db q =
  let f = Lineage.lineage_formula db q in
  Compile.compile f

let shapley db q =
  let universe = Vset.elements (Database.lineage_vars db) in
  match classify q with
  | Hierarchical ->
    (Circuit_shapley.shap_direct ~vars:universe (Safe_plan.lineage_circuit db q),
     Safe_plan_circuit)
  | Non_hierarchical _ | Has_self_joins | Has_negation ->
    (Circuit_shapley.shap_direct ~vars:universe (compiled_circuit db q),
     Compiled_dnf)

(* Solver round-trips through the cache as an opaque string tag (the
   cache layer knows nothing of this module's types). *)
let solver_tag = function
  | Safe_plan_circuit -> "safe-plan"
  | Compiled_dnf -> "compiled-dnf"

let solver_of_tag = function
  | "safe-plan" -> Safe_plan_circuit
  | "compiled-dnf" -> Compiled_dnf
  | s -> invalid_arg ("Dichotomy: unknown cached solver tag " ^ s)

let shapley_cached ?on_miss ~cache db q =
  let key = Db_fingerprint.result_key db q in
  let mentioned = Db_fingerprint.mentioned q in
  let ctags = List.map (Db_fingerprint.relation_tag db) mentioned in
  let rtags = Db_fingerprint.db_tag db :: ctags in
  let solve () =
    let run () =
      let universe = Vset.elements (Database.lineage_vars db) in
      let lkey = Db_fingerprint.lineage_key db q in
      (* Tier 1: the compiled circuit depends only on the mentioned
         relations, so it survives (and keeps hitting) across mutations
         of unrelated relations that still change the result key. *)
      let compile suffix mk =
        Cache.circuit cache ~key:(lkey ^ suffix) ~tags:ctags (fun () ->
            Obs.call ~oracle:"cache.compile" ~n:(List.length universe)
              ~attrs:[ ("query", Trace.Str (Cq.to_string q)) ]
              mk)
      in
      let g, solver =
        match classify q with
        | Hierarchical ->
          (compile "/safe" (fun () -> Safe_plan.lineage_circuit db q),
           Safe_plan_circuit)
        | Non_hierarchical _ | Has_self_joins | Has_negation ->
          (compile "/dnf" (fun () -> compiled_circuit db q), Compiled_dnf)
      in
      (Circuit_shapley.shap_direct ~vars:universe g, solver)
    in
    let values, s =
      match on_miss with None -> run () | Some wrap -> wrap run
    in
    (values, solver_tag s)
  in
  let values, tag = Cache.shapley_all cache ~key ~tags:rtags solve in
  (values, solver_of_tag tag)

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
  let universe = Vset.elements (Database.lineage_vars db) in
  Naive.shap_subsets ~vars:universe (Lineage.lineage_formula db q)

let count_models db q =
  let universe = Vset.elements (Database.lineage_vars db) in
  match classify q with
  | Hierarchical ->
    (Count.count ~vars:universe (Safe_plan.lineage_circuit db q),
     Safe_plan_circuit)
  | Non_hierarchical _ | Has_self_joins | Has_negation ->
    (Count.count ~vars:universe (compiled_circuit db q), Compiled_dnf)

(** Tests for the database layer: storage, queries, lineage, safe plans
    and the dichotomy solver. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let r = Rat.of_ints

let database_tests =
  [ t "declare and insert" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:2;
        let v = Database.insert db "R" [| Value.int 1; Value.int 2 |] in
        Alcotest.(check (option int)) "var 1" (Some 1) v;
        Alcotest.(check bool) "mem" true
          (Database.mem db "R" [| Value.int 1; Value.int 2 |]);
        Alcotest.(check bool) "tuple_of_var" true
          (Database.tuple_of_var db 1 = ("R", [| Value.int 1; Value.int 2 |])));
    t "exogenous tuples carry no variable" (fun () ->
        let db = Database.create () in
        Database.declare db "S" ~kind:Database.Exogenous ~arity:1;
        Alcotest.(check (option int)) "none" None
          (Database.insert db "S" [| Value.int 1 |]));
    t "duplicate tuples rejected" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        Alcotest.(check bool) "raises" true
          (try
             ignore (Database.insert db "R" [| Value.int 1 |]);
             false
           with Invalid_argument _ -> true));
    t "arity mismatch rejected" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:2;
        Alcotest.(check bool) "raises" true
          (try
             ignore (Database.insert db "R" [| Value.int 1 |]);
             false
           with Invalid_argument _ -> true));
    t "lineage_vars and active domain" (fun () ->
        let db = example13_db () in
        Alcotest.check vset "4 vars" (Vset.of_list [ 1; 2; 3; 4 ])
          (Database.lineage_vars db);
        Alcotest.(check int) "adom" 2 (List.length (Database.active_domain db)));
    t "insert_with_var rejects reuse" (fun () ->
        let db = example13_db () in
        Alcotest.(check bool) "raises" true
          (try
             Database.insert_with_var db "R1" [| Value.int 9 |] ~lvar:1;
             false
           with Invalid_argument _ -> true))
  ]

let cq_tests =
  [ t "variables in order" (fun () ->
        let q = Db_parser.parse_query "R(x, y), S(y, z)" in
        Alcotest.(check (list string)) "xyz" [ "x"; "y"; "z" ] (Cq.variables q));
    t "at" (fun () ->
        let q = Db_parser.parse_query "R(x), S(x, y), T(y)" in
        Alcotest.(check (list int)) "at(x)" [ 0; 1 ] (Cq.at q "x");
        Alcotest.(check (list int)) "at(y)" [ 1; 2 ] (Cq.at q "y"));
    t "q0 is non-hierarchical, stretched q0 is hierarchical... not" (fun () ->
        (* Lemma 15: stretching preserves (non-)hierarchy. *)
        let q0 = Stretch.q0 () in
        Alcotest.(check bool) "q0 non-hier" false (Cq.is_hierarchical q0);
        let q0s, _ =
          Stretch.stretch_query ~is_endogenous:(fun n -> n <> "S") q0
        in
        Alcotest.(check bool) "stretched still non-hier" false
          (Cq.is_hierarchical q0s));
    t "hierarchical examples" (fun () ->
        List.iter
          (fun (s, expected) ->
             Alcotest.(check bool) s expected
               (Cq.is_hierarchical (Db_parser.parse_query s)))
          [ ("R(x), S(x, y)", true);
            ("R(x), S(x, y), T(y)", false);
            ("R(x, y), S(x), T(x, y, z)", true);
            ("R(x), S(y)", true);
            ("R(x, y), S(y, z), T(z, x)", false) ]);
    t "self-join detection" (fun () ->
        Alcotest.(check bool) "sjf" true
          (Cq.is_self_join_free (Db_parser.parse_query "R(x), S(x)"));
        Alcotest.(check bool) "self-join" false
          (Cq.is_self_join_free (Db_parser.parse_query "R(x), R(y)")));
    t "constants are not variables" (fun () ->
        let q = Db_parser.parse_query "R(x, 3)" in
        Alcotest.(check (list string)) "only x" [ "x" ] (Cq.variables q))
  ]

let lineage_tests =
  [ t "example 13 lineage" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        let f = Lineage.lineage_formula db q in
        (* (Y1 ∧ Y3) ∨ (Y2 ∧ Y4) with vars 1..4 *)
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent f
             (Parser.formula_of_string_exn "x1 & x3 | x2 & x4")));
    t "exogenous tuples vanish from lineage" (fun () ->
        let db = Database.create () in
        Stretch.declare_q0_schema db;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "T" [| Value.int 2 |]);
        ignore (Database.insert db "S" [| Value.int 1; Value.int 2 |]);
        let f = Lineage.lineage_formula db (Stretch.q0 ()) in
        Alcotest.(check bool) "x1 & x2" true
          (Semantics.equivalent f (Parser.formula_of_string_exn "x1 & x2")));
    t "missing tuples kill assignments" (fun () ->
        let db = Database.create () in
        Stretch.declare_q0_schema db;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "T" [| Value.int 2 |]);
        (* no S tuple: lineage is false *)
        Alcotest.(check bool) "false" true
          (Lineage.lineage db (Stretch.q0 ()) = []);
        Alcotest.(check bool) "no answer" false
          (Lineage.boolean_answer db (Stretch.q0 ())));
    t "constants in query filter tuples" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(1)" in
        let f = Lineage.lineage_formula db q in
        Alcotest.(check bool) "just x1" true
          (Semantics.equivalent f (Formula.var 1)));
    t "self-join uses the same variable twice" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        let q = Db_parser.parse_query "R(x), R(y)" in
        (* single tuple: both atoms map to it; clause = {x1} *)
        let f = Lineage.lineage_formula db q in
        Alcotest.(check bool) "x1" true (Semantics.equivalent f (Formula.var 1)));
    t "lineage of query with repeated variable in atom" (fun () ->
        let db = Database.create () in
        Database.declare db "E" ~kind:Database.Endogenous ~arity:2;
        ignore (Database.insert db "E" [| Value.int 1; Value.int 1 |]);
        ignore (Database.insert db "E" [| Value.int 1; Value.int 2 |]);
        let q = Db_parser.parse_query "E(x, x)" in
        let f = Lineage.lineage_formula db q in
        Alcotest.(check bool) "only the loop" true
          (Semantics.equivalent f (Formula.var 1)))
  ]

let gen_q0_inst =
  QCheck.make
    ~print:(fun (a, b, seed) -> Printf.sprintf "a=%d b=%d seed=%d" a b seed)
    QCheck.Gen.(
      let* a = int_range 1 3 in
      let* b = int_range 1 3 in
      let* seed = int_range 0 99999 in
      return (a, b, seed))

let safe_plan_tests =
  [ t "rejects non-hierarchical queries" (fun () ->
        let db, q = random_q0_db ~a:2 ~b:2 ~density:0.5 ~seed:7 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Safe_plan.lineage_circuit db q);
             false
           with Safe_plan.Not_safe _ -> true));
    t "rejects self-joins" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R1(y)" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Safe_plan.lineage_circuit db q);
             false
           with Safe_plan.Not_safe _ -> true));
    t "example 13 safe plan matches brute force" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        check_shap "match"
          (Dichotomy.shapley_brute db q)
          (Safe_plan.shapley db q));
    t "hierarchical chain query" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
        List.iter (fun i -> ignore (Database.insert db "R" [| Value.int i |])) [ 1; 2 ];
        List.iter
          (fun (x, y) ->
             ignore (Database.insert db "S" [| Value.int x; Value.int y |]))
          [ (1, 1); (1, 2); (2, 1) ];
        let q = Db_parser.parse_query "R(x), S(x, y)" in
        let c = Safe_plan.lineage_circuit db q in
        Alcotest.(check bool) "equiv lineage" true
          (Circuit.equivalent_formula ~max_vars:10 c
             (Lineage.lineage_formula db q));
        check_shap "shapley" (Dichotomy.shapley_brute db q) (Safe_plan.shapley db q));
    qtest "safe plan = brute force on random hierarchical DBs" ~count:25
      gen_q0_inst
      (fun (a, b, seed) ->
         (* hierarchical query R(x), S(x,y) over random S *)
         let st = Random.State.make [| seed |] in
         let db = Database.create () in
         Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
         Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
         for i = 0 to a - 1 do
           ignore (Database.insert db "R" [| Value.int i |])
         done;
         for i = 0 to a - 1 do
           for j = 0 to b - 1 do
             if Random.State.bool st then
               ignore (Database.insert db "S" [| Value.int i; Value.int j |])
           done
         done;
         let q = Db_parser.parse_query "R(x), S(x, y)" in
         let reference = Dichotomy.shapley_brute db q in
         let got = Safe_plan.shapley db q in
         List.for_all2
           (fun (i, x) (j, y) -> i = j && Rat.equal x y)
           reference got)
  ]

let constant_plan_tests =
  [ t "safe plan handles constants in the query" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
        List.iter (fun i -> ignore (Database.insert db "R" [| Value.int i |])) [ 1; 2 ];
        List.iter
          (fun (x, y) ->
             ignore (Database.insert db "S" [| Value.int x; Value.int y |]))
          [ (1, 3); (1, 4); (2, 3) ];
        (* pin y to the constant 3 *)
        let q = Db_parser.parse_query "R(x), S(x, 3)" in
        check_shap "matches brute force"
          (Dichotomy.shapley_brute db q)
          (Safe_plan.shapley db q));
    t "fully ground query" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "R" [| Value.int 2 |]);
        let q = Db_parser.parse_query "R(1)" in
        let shap = Safe_plan.shapley db q in
        (* F = x1 over universe {x1, x2} *)
        Alcotest.check rat "x1 = 1" Rat.one (List.assoc 1 shap);
        Alcotest.check rat "x2 dummy" Rat.zero (List.assoc 2 shap));
    t "query over an empty relation" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        let q = Db_parser.parse_query "R(x), S(x, y)" in
        (* S empty: lineage false; every Shapley value 0 *)
        let shap = Safe_plan.shapley db q in
        List.iter (fun (_, v) -> Alcotest.check rat "zero" Rat.zero v) shap)
  ]

(* A hierarchical database whose lineage is ⋁_i (r_i ∧ (⋁_j s_ij)):
   linear OBDD under the plan order, exponential under a bad order. *)
let block_db ~blocks ~per_block =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  for i = 1 to blocks do
    ignore (Database.insert db "R" [| Value.int i |])
  done;
  for i = 1 to blocks do
    for j = 1 to per_block do
      ignore (Database.insert db "S" [| Value.int i; Value.int j |])
    done
  done;
  db

let obdd_order_tests =
  [ t "plan order keeps the OBDD linear" (fun () ->
        let db = block_db ~blocks:6 ~per_block:2 in
        let q = Db_parser.parse_query "R(x), S(x, y)" in
        let m, o = Safe_plan.lineage_obdd db q in
        let n = Vset.cardinal (Database.lineage_vars db) in
        (* linear bound with small constant *)
        Alcotest.(check bool) "small" true (Obdd.size o <= (4 * n) + 2);
        (* counting through the OBDD agrees with the circuit counter *)
        let vars = Vset.elements (Database.lineage_vars db) in
        Alcotest.check bigint "same count"
          (Count.count ~vars (Safe_plan.lineage_circuit db q))
          (Obdd.count m ~vars o));
    t "interleaving-hostile order blows up" (fun () ->
        let db = block_db ~blocks:6 ~per_block:2 in
        let q = Db_parser.parse_query "R(x), S(x, y)" in
        (* bad order: all R variables first, then all S variables *)
        let all = Vset.elements (Database.lineage_vars db) in
        let r_vars, s_vars =
          List.partition (fun v -> fst (Database.tuple_of_var db v) = "R") all
        in
        let bad = Obdd.create_manager ~order:(r_vars @ s_vars) in
        let o_bad = Obdd.of_formula bad (Lineage.lineage_formula db q) in
        let _, o_good = Safe_plan.lineage_obdd db q in
        Alcotest.(check bool) "bad >> good" true
          (Obdd.size o_bad > 3 * Obdd.size o_good));
    t "order covers all lineage variables" (fun () ->
        let db = block_db ~blocks:3 ~per_block:2 in
        (* add an S tuple never joined (dangling) — still in the order *)
        ignore (Database.insert db "S" [| Value.int 99; Value.int 1 |]);
        let q = Db_parser.parse_query "R(x), S(x, y)" in
        let order = Safe_plan.obdd_order db q in
        Alcotest.check vset "all vars"
          (Database.lineage_vars db)
          (Vset.of_list order))
  ]

let dichotomy_tests =
  [ t "classification" (fun () ->
        Alcotest.(check bool) "hier" true
          (Dichotomy.classify (Db_parser.parse_query "R(x), S(x, y)")
           = Dichotomy.Hierarchical);
        (match Dichotomy.classify (Stretch.q0 ()) with
         | Dichotomy.Non_hierarchical (x, y) ->
           Alcotest.(check bool) "witness" true
             ((x, y) = ("x", "y") || (x, y) = ("y", "x"))
         | _ -> Alcotest.fail "expected non-hierarchical");
        Alcotest.(check bool) "self-join" true
          (Dichotomy.classify (Db_parser.parse_query "R(x), R(y)")
           = Dichotomy.Has_self_joins));
    qtest "dichotomy solver = brute force (q0, both branches)" ~count:20
      gen_q0_inst
      (fun (a, b, seed) ->
         let db, q = random_q0_db ~a ~b ~density:0.5 ~seed in
         let got, solver = Dichotomy.shapley db q in
         let reference = Dichotomy.shapley_brute db q in
         solver = Dichotomy.Compiled_dnf
         && List.for_all2
              (fun (i, x) (j, y) -> i = j && Rat.equal x y)
              reference got);
    qtest "count_models agrees with DPLL" ~count:20 gen_q0_inst
      (fun (a, b, seed) ->
         let db, q = random_q0_db ~a ~b ~density:0.5 ~seed in
         let got, _ = Dichotomy.count_models db q in
         let universe = Vset.elements (Database.lineage_vars db) in
         Bigint.equal got
           (Dpll.count_universe ~vars:universe (Lineage.lineage_formula db q)))
  ]

let explain_tests =
  [ t "self-join queries solved via compilation" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R1(y)" in
        let got, solver = Dichotomy.shapley db q in
        Alcotest.(check bool) "compiled" true (solver = Dichotomy.Compiled_dnf);
        check_shap "matches brute" (Dichotomy.shapley_brute db q) got);
    t "explain report is ranked and sums per Prop. 5" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        let report = Explain.explain db q in
        Alcotest.(check bool) "answer" true report.Explain.answer;
        Alcotest.(check bool) "safe plan" true
          (report.Explain.solver = Dichotomy.Safe_plan_circuit);
        Alcotest.check rat "sum 1" Rat.one (Explain.total report);
        (* ranking is decreasing *)
        let rec decreasing = function
          | (a : Explain.entry) :: (b :: _ as rest) ->
            Rat.compare a.Explain.value b.Explain.value >= 0 && decreasing rest
          | _ -> true
        in
        Alcotest.(check bool) "sorted" true (decreasing report.Explain.entries);
        Alcotest.(check int) "top 2" 2 (List.length (Explain.top_k report 2)));
    t "explain on a false answer" (fun () ->
        let db = Database.create () in
        Stretch.declare_q0_schema db;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "T" [| Value.int 2 |]);
        let report = Explain.explain db (Stretch.q0 ()) in
        Alcotest.(check bool) "no answer" false report.Explain.answer;
        Alcotest.check rat "sum 0" Rat.zero (Explain.total report))
  ]

let parser_tests =
  [ t "full file format" (fun () ->
        let text =
          "# demo\n\
           rel R endo 1\n\
           row R 1\n\
           row R 2\n\
           rel S exo 2\n\
           row S 1 7\n\
           rel T endo 1\n\
           row T 7\n\
           query R(x), S(x, y), T(y)\n"
        in
        let db, q = Db_parser.parse_string text in
        Alcotest.(check int) "3 rels" 3 (List.length (Database.relation_names db));
        Alcotest.(check bool) "answer" true (Lineage.boolean_answer db q));
    t "string values and quoting" (fun () ->
        let text = "rel R endo 1\nrow R alice\nquery R('alice')" in
        let db, q = Db_parser.parse_string text in
        Alcotest.(check bool) "answer" true (Lineage.boolean_answer db q));
    t "errors carry line numbers" (fun () ->
        List.iter
          (fun text ->
             Alcotest.(check bool) "raises" true
               (try
                  ignore (Db_parser.parse_string text);
                  false
                with Invalid_argument msg ->
                  String.length msg >= 9 && String.sub msg 0 9 = "Db_parser"))
          [ "bogus line\nquery R(x)";
            "rel R endo xyz\nquery R(x)";
            "row R 1\nquery R(x)";
            "rel R endo 1\nrow R 1" (* no query *) ])
  ]

(* The per-relation tuple index follows every insert, removal and
   copy. *)
let index_tests =
  [ t "tuple index: duplicates, removal and copies" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:2;
        Database.declare db "E" ~kind:Database.Exogenous ~arity:1;
        let tup a b = [| Value.int a; Value.str b |] in
        ignore (Database.insert db "R" (tup 1 "a"));
        Database.insert_with_var db "R" (tup 2 "b") ~lvar:7;
        ignore (Database.insert db "E" [| Value.int 1 |]);
        Alcotest.check_raises "duplicate insert"
          (Invalid_argument "Database: duplicate tuple in R") (fun () ->
            ignore (Database.insert db "R" (tup 1 "a")));
        Alcotest.check_raises "duplicate insert_with_var"
          (Invalid_argument "Database: duplicate tuple in R") (fun () ->
            Database.insert_with_var db "R" (tup 2 "b") ~lvar:9);
        Alcotest.(check bool) "string constant apart from int" false
          (Database.mem db "R" [| Value.int 1; Value.str "1" |]);
        Alcotest.(check (option int)) "endogenous lookup" (Some 7)
          (Option.bind (Database.find_tuple db "R" (tup 2 "b"))
             (fun s -> s.Database.lvar));
        Alcotest.(check bool) "exogenous lookup" true
          (Database.find_tuple db "E" [| Value.int 1 |]
           = Some { Database.values = [| Value.int 1 |]; lvar = None });
        let copy = Database.copy db in
        Alcotest.(check bool) "removed" true
          (Database.remove db "R" (tup 1 "a"));
        Alcotest.(check bool) "not mem after remove" false
          (Database.mem db "R" (tup 1 "a"));
        Alcotest.(check bool) "second remove" false
          (Database.remove db "R" (tup 1 "a"));
        ignore (Database.insert db "R" (tup 3 "c"));
        Alcotest.(check bool) "copy keeps the removed tuple" true
          (Database.mem copy "R" (tup 1 "a"));
        Alcotest.(check bool) "copy misses a later insert" false
          (Database.mem copy "R" (tup 3 "c"));
        ignore (Database.insert db "R" (tup 1 "a"));
        Alcotest.(check int) "reinserted" 3
          (List.length (Database.tuples db "R"));
        Alcotest.(check int) "copy rows" 2
          (List.length (Database.tuples copy "R"))) ]

(* ------------------------------------------------------------------ *)
(* The lineage as a record of derivations: one clause per satisfying
   assignment of the query variables. *)

let clauses = Alcotest.list vset

let rec subsets = function
  | [] -> [ Vset.empty ]
  | v :: rest -> List.concat_map (fun s -> [ s; Vset.add v s ]) (subsets rest)

let derivation_tests =
  [ t "example 13: one clause per derivation" (fun () ->
        let db = example13_db () in
        Alcotest.check clauses "x1 x3 + x2 x4"
          [ Vset.of_list [ 1; 3 ]; Vset.of_list [ 2; 4 ] ]
          (Lineage.lineage db (Db_parser.parse_query "R1(x), R2(x)")));
    t "a cross product has a clause per pair" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(y)" in
        Alcotest.check clauses "4 derivations"
          (List.map Vset.of_list [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ])
          (Lineage.lineage db q);
        (* (x1 | x2) & (x3 | x4) over 4 facts *)
        let count, solver = Dichotomy.count_models db q in
        Alcotest.check bigint "9 models" (bi 9) count;
        Alcotest.(check bool) "safe plan" true
          (solver = Dichotomy.Safe_plan_circuit));
    t "a self-join keeps absorbed clauses until minimized" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "R" [| Value.int 2 |]);
        let d = Lineage.lineage db (Db_parser.parse_query "R(x), R(y)") in
        (* (1,1); (1,2) and (2,1); (2,2) *)
        Alcotest.check clauses "3 distinct derivations"
          (List.map Vset.of_list [ [ 1 ]; [ 1; 2 ]; [ 2 ] ]) d;
        Alcotest.check clauses "minimized"
          (List.map Vset.of_list [ [ 1 ]; [ 2 ] ]) (Nf.pdnf_minimize d));
    t "no derivation: false lineage and zero count on both solvers"
      (fun () ->
        let q0_db = Database.create () in
        Stretch.declare_q0_schema q0_db;
        ignore (Database.insert q0_db "R" [| Value.int 1 |]);
        ignore (Database.insert q0_db "T" [| Value.int 2 |]);
        let db = example13_db () in
        ignore (Database.remove db "R2" [| Value.int 1 |]);
        ignore (Database.remove db "R2" [| Value.int 2 |]);
        ignore (Database.insert db "R2" [| Value.int 3 |]);
        List.iter
          (fun (db, q, expected) ->
             Alcotest.check formula "false" Formula.fls
               (Lineage.lineage_formula db q);
             let count, solver = Dichotomy.count_models db q in
             Alcotest.check bigint "0 models" Bigint.zero count;
             Alcotest.(check bool) "solver" true (solver = expected))
          [ (q0_db, Stretch.q0 (), Dichotomy.Compiled_dnf);
            (db, Db_parser.parse_query "R1(x), R2(x)",
             Dichotomy.Safe_plan_circuit) ]);
    qtest "Q(D) holds iff the lineage has a model" ~count:25 gen_q0_inst
      (fun (a, b, seed) ->
         let db, q = random_q0_db ~a ~b ~density:0.5 ~seed in
         let count, _ = Dichotomy.count_models db q in
         let answer = Lineage.boolean_answer db q in
         answer = (Lineage.lineage db q <> [])
         && answer = not (Bigint.equal count Bigint.zero));
    qtest "q0 lineage models = satisfying sub-databases" ~count:25
      gen_q0_inst
      (fun (a, b, seed) ->
         let db, q = random_q0_db ~a ~b ~density:0.6 ~seed in
         let f = Lineage.lineage_formula db q in
         List.for_all
           (fun present ->
              Formula.eval_set present f
              = Test_negation.eval_subdb db q present)
           (subsets (Vset.elements (Database.lineage_vars db))))
  ]

(* ------------------------------------------------------------------ *)
(* A union of hierarchical queries over disjoint endogenous relations:
   the disjuncts' lineages share no variable, so their safe-plan
   circuits join under one variable-disjoint OR gate, which the circuit
   algorithm of Theorem 4.1 solves as it stands. *)

let union_circuit db qs =
  Circuit.cor_disj
    (List.map
       (fun q -> Safe_plan.lineage_circuit db (Db_parser.parse_query q))
       qs)

let union_formula db qs =
  Formula.or_
    (List.map
       (fun q -> Lineage.lineage_formula db (Db_parser.parse_query q))
       qs)

let universe db = Vset.elements (Database.lineage_vars db)

let union_tests =
  [ t "an OR of safe plans is the union's lineage" (fun () ->
        let db = example13_db () in
        Alcotest.(check bool) "x1 | x2 | x3 | x4" true
          (Circuit.equivalent_formula ~max_vars:10
             (union_circuit db [ "R1(x)"; "R2(x)" ])
             (Parser.formula_of_string_exn "x1 | x2 | x3 | x4")));
    t "an OR of safe plans splits the answer evenly" (fun () ->
        let db = example13_db () in
        check_shap "1/4 each"
          (List.map (fun i -> (i, r 1 4)) [ 1; 2; 3; 4 ])
          (Circuit_shapley.shap_direct ~vars:(universe db)
             (union_circuit db [ "R1(x)"; "R2(x)" ])));
    t "an OR of safe plans has probability 15/16 at 1/2" (fun () ->
        let db = example13_db () in
        Alcotest.check rat "15/16" (r 15 16)
          (Prob.probability ~weights:Prob.uniform_half
             (union_circuit db [ "R1(x)"; "R2(x)" ])));
    t "a shared relation needs the compiler" (fun () ->
        let db = example13_db () in
        let qs = [ "R1(x), R2(x)"; "R1(x)" ] in
        Alcotest.(check bool) "no disjoint OR" true
          (try ignore (union_circuit db qs); false
           with Invalid_argument _ -> true);
        let f = union_formula db qs in
        check_shap "compiled = brute force"
          (Naive.shap_subsets ~vars:(universe db) f)
          (Circuit_shapley.shap_direct ~vars:(universe db)
             (Compile.compile f)));
    qtest "an OR of safe plans = brute force on random q0 databases"
      ~count:15 gen_q0_inst
      (fun (a, b, seed) ->
         let db, _ = random_q0_db ~a ~b ~density:0.6 ~seed in
         let qs = [ "R(x), S(x, y)"; "T(y)" ] in
         let vars = universe db in
         List.for_all2
           (fun (i, x) (j, y) -> i = j && Rat.equal x y)
           (Naive.shap_subsets ~vars (union_formula db qs))
           (Circuit_shapley.shap_direct ~vars (union_circuit db qs)))
  ]

let suite =
  database_tests @ cq_tests @ lineage_tests @ safe_plan_tests
  @ constant_plan_tests @ obdd_order_tests @ dichotomy_tests
  @ explain_tests @ parser_tests @ index_tests @ derivation_tests
  @ union_tests

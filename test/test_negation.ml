(** Tests for conjunctive queries with safely negated atoms (the Reshef
    et al. direction the paper cites as [29]). *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let r = Rat.of_ints

(* Direct semantics: evaluate a query with negation over the
   sub-database keeping exactly the endogenous tuples in [present]
   (exogenous tuples always present). *)
let eval_subdb db (q : Cq.t) present =
  let tuple_present (s : Database.stored) =
    match s.lvar with None -> true | Some v -> Vset.mem v present
  in
  let match_atom env (a : Cq.atom) (s : Database.stored) =
    let bind acc i =
      match acc with
      | None -> None
      | Some env ->
        (match a.Cq.args.(i) with
         | Cq.C v -> if Value.equal v s.values.(i) then Some env else None
         | Cq.V x ->
           (match List.assoc_opt x env with
            | Some v -> if Value.equal v s.values.(i) then Some env else None
            | None -> Some ((x, s.values.(i)) :: env)))
    in
    let rec go acc i =
      if i >= Array.length a.Cq.args then acc else go (bind acc i) (i + 1)
    in
    go (Some env) 0
  in
  let positive, negated =
    List.partition (fun (a : Cq.atom) -> not a.Cq.negated) q.Cq.atoms
  in
  let rec search env = function
    | [] ->
      (* all negated atoms must fail on the sub-database *)
      List.for_all
        (fun (a : Cq.atom) ->
           not
             (List.exists
                (fun s ->
                   tuple_present s && match_atom env a s <> None)
                (Database.tuples db a.Cq.rel)))
        negated
    | (a : Cq.atom) :: rest ->
      List.exists
        (fun s ->
           tuple_present s
           &&
           match match_atom env a s with
           | None -> false
           | Some env' -> search env' rest)
        (Database.tuples db a.Cq.rel)
  in
  search [] positive

let small_neg_db seed =
  let st = Random.State.make [| seed |] in
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "T" ~kind:Database.Endogenous ~arity:1;
  List.iter
    (fun i ->
       if Random.State.bool st then ignore (Database.insert db "R" [| Value.int i |]))
    [ 1; 2; 3 ];
  List.iter
    (fun i ->
       if Random.State.bool st then ignore (Database.insert db "T" [| Value.int i |]))
    [ 1; 2; 3 ];
  (* ensure nonempty R so the positive part can match *)
  if Database.tuples db "R" = [] then ignore (Database.insert db "R" [| Value.int 1 |]);
  db

let unit_tests =
  [ t "parser accepts negated atoms" (fun () ->
        let q = Db_parser.parse_query "R(x), !T(x)" in
        Alcotest.(check bool) "not positive" false (Cq.is_positive q);
        Alcotest.(check bool) "safe" true (Cq.is_safe_negation q);
        Alcotest.(check string) "pp" "R(x), !T(x)" (Cq.to_string q));
    t "all-negated queries rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Cq.make [ Cq.negated_atom "R" [ Cq.V "x" ] ]);
             false
           with Invalid_argument _ -> true));
    t "unsafe negation detected and rejected at lineage time" (fun () ->
        let q =
          Cq.make
            [ Cq.atom "R" [ Cq.V "x" ]; Cq.negated_atom "T" [ Cq.V "y" ] ]
        in
        Alcotest.(check bool) "unsafe" false (Cq.is_safe_negation q);
        let db = small_neg_db 1 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Lineage.lineage_clauses db q);
             false
           with Invalid_argument _ -> true));
    t "lineage of R(x), !T(x)" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "T" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]); (* x1 *)
        ignore (Database.insert db "R" [| Value.int 2 |]); (* x2 *)
        ignore (Database.insert db "T" [| Value.int 1 |]); (* x3 *)
        let q = Db_parser.parse_query "R(x), !T(x)" in
        let f = Lineage.lineage_formula db q in
        (* value 1: r-tuple present, t-tuple absent; value 2: r present *)
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent f
             (Parser.formula_of_string_exn "x1 & !x3 | x2")));
    t "negated exogenous atom blocks assignments" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "S" ~kind:Database.Exogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "R" [| Value.int 2 |]);
        ignore (Database.insert db "S" [| Value.int 1 |]);
        let q = Db_parser.parse_query "R(x), !S(x)" in
        let f = Lineage.lineage_formula db q in
        Alcotest.(check bool) "only x2" true
          (Semantics.equivalent f (Formula.var 2)));
    t "self-join contradiction clauses dropped" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        (* R(x), !R(x): needs the same tuple present and absent *)
        let q = Db_parser.parse_query "R(x), !R(x)" in
        Alcotest.(check bool) "unsatisfiable" true
          (Lineage.lineage_clauses db q = []));
    t "classification reports negation" (fun () ->
        Alcotest.(check bool) "has_negation" true
          (Dichotomy.classify (Db_parser.parse_query "R(x), !T(x)")
           = Dichotomy.Has_negation));
    t "safe plan rejects negation" (fun () ->
        let db = small_neg_db 2 in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Safe_plan.lineage_circuit db
                  (Db_parser.parse_query "R(x), !T(x)"));
             false
           with Safe_plan.Not_safe _ -> true));
    t "dichotomy solver handles negation via compilation" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "T" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        ignore (Database.insert db "T" [| Value.int 1 |]);
        let q = Db_parser.parse_query "R(x), !T(x)" in
        let shap, solver = Dichotomy.shapley db q in
        Alcotest.(check bool) "compiled" true (solver = Dichotomy.Compiled_dnf);
        (* F = x1 & !x2: Shapley (1/2, -1/2) as in Example 2's negative case *)
        check_shap "values" [ (1, r 1 2); (2, r (-1) 2) ] shap)
  ]

let property_tests =
  [ qtest "lineage models = satisfying sub-databases" ~count:40
      (QCheck.make
         ~print:string_of_int
         QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let db = small_neg_db seed in
         let q = Db_parser.parse_query "R(x), !T(x)" in
         let f = Lineage.lineage_formula db q in
         let vars = Vset.elements (Database.lineage_vars db) in
         let varr = Array.of_list vars in
         let n = Array.length varr in
         let ok = ref true in
         for mask = 0 to (1 lsl n) - 1 do
           let present = ref Vset.empty in
           Array.iteri
             (fun i v -> if mask land (1 lsl i) <> 0 then present := Vset.add v !present)
             varr;
           if Formula.eval_set !present f <> eval_subdb db q !present then
             ok := false
         done;
         !ok);
    qtest "negated Shapley matches brute force on the lineage" ~count:25
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let db = small_neg_db seed in
         let q = Db_parser.parse_query "R(x), !T(x)" in
         let got, _ = Dichotomy.shapley db q in
         let reference = Dichotomy.shapley_brute db q in
         List.for_all2
           (fun (i, x) (j, y) -> i = j && Rat.equal x y)
           (List.sort compare reference) (List.sort compare got));
    qtest "two negated atoms" ~count:20
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let db = small_neg_db seed in
         let q = Db_parser.parse_query "R(x), !T(x), !R(3)" in
         let f = Lineage.lineage_formula db q in
         let vars = Vset.elements (Database.lineage_vars db) in
         let varr = Array.of_list vars in
         let n = Array.length varr in
         let ok = ref true in
         for mask = 0 to (1 lsl n) - 1 do
           let present = ref Vset.empty in
           Array.iteri
             (fun i v -> if mask land (1 lsl i) <> 0 then present := Vset.add v !present)
             varr;
           if Formula.eval_set !present f <> eval_subdb db q !present then
             ok := false
         done;
         !ok)
  ]

(* The positive-DNF lineage is defined for positive queries: a negated
   atom is refused, not matched as a positive one (which would give the
   clause x1 x3 of R(x), T(x)).  The general lineage and the
   dichotomy's compiled route take it. *)
let rejection_tests =
  [ t "the positive lineage refuses negated atoms" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        Database.declare db "T" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]); (* x1 *)
        ignore (Database.insert db "R" [| Value.int 2 |]); (* x2 *)
        ignore (Database.insert db "T" [| Value.int 1 |]); (* x3 *)
        let q = Db_parser.parse_query "R(x), !T(x)" in
        Alcotest.check_raises "lineage"
          (Invalid_argument "Lineage.lineage: query has negated atoms")
          (fun () -> ignore (Lineage.lineage db q));
        Alcotest.(check bool) "lineage_clauses: x1 !x3 + x2" true
          (Lineage.lineage_clauses db q
           = [ Nf.clause ~pos:[ 1 ] ~neg:[ 3 ]; Nf.clause ~pos:[ 2 ] ~neg:[] ]));
    qtest "negated count_models = satisfying sub-databases" ~count:25
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let db = small_neg_db seed in
         let q = Db_parser.parse_query "R(x), !T(x)" in
         let count, solver = Dichotomy.count_models db q in
         let varr = Array.of_list (Vset.elements (Database.lineage_vars db)) in
         let satisfying = ref 0 in
         for mask = 0 to (1 lsl Array.length varr) - 1 do
           let present = ref Vset.empty in
           Array.iteri
             (fun i v ->
                if mask land (1 lsl i) <> 0 then present := Vset.add v !present)
             varr;
           if eval_subdb db q !present then incr satisfying
         done;
         solver = Dichotomy.Compiled_dnf
         && Bigint.equal count (Bigint.of_int !satisfying)) ]

let suite = unit_tests @ property_tests @ rejection_tests

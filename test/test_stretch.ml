(** Tests for stretching (Definition 10, Lemma 12, Lemma 15, Claim 5.2)
    and the executable hardness reduction (Section 5.3). *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

let is_endo db name = Database.kind_of db name = Database.Endogenous

let stretch_tests =
  [ t "example 11: stretching q0" (fun () ->
        let q0 = Stretch.q0 () in
        let qt, zs = Stretch.stretch_query ~is_endogenous:(fun n -> n <> "S") q0 in
        Alcotest.(check int) "two fresh vars" 2 (List.length zs);
        (* R and T atoms gained an argument, S did not *)
        let arities = List.map (fun (a : Cq.atom) -> (a.Cq.rel, Array.length a.Cq.args)) qt.Cq.atoms in
        Alcotest.(check (list (pair string int))) "arities"
          [ ("R", 2); ("S", 2); ("T", 2) ] arities);
    t "lemma 15: stretching preserves hierarchy both ways" (fun () ->
        List.iter
          (fun (s, endos) ->
             let q = Db_parser.parse_query s in
             let qt, _ =
               Stretch.stretch_query ~is_endogenous:(fun n -> List.mem n endos) q
             in
             Alcotest.(check bool) s (Cq.is_hierarchical q) (Cq.is_hierarchical qt))
          [ ("R(x), S(x, y)", [ "R"; "S" ]);
            ("R(x), S(x, y), T(y)", [ "R"; "T" ]);
            ("R(x), S(y)", [ "R"; "S" ]);
            ("R(x, y), S(y, z), T(z, x)", [ "R"; "S"; "T" ]);
            ("A(x), B(x, y), C(x, y, z)", [ "A"; "B"; "C" ]) ]);
    t "B.1.1: dummy stretching preserves the lineage exactly" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        let qt, _ = Stretch.stretch_query ~is_endogenous:(is_endo db) q in
        let dbt = Stretch.stretch_database_dummy db in
        Alcotest.check formula "same lineage"
          (Lineage.lineage_formula db q)
          (Lineage.lineage_formula dbt qt))
  ]

(* The commutative diagram of Section 5.2, on random databases:
   or-substituting the lineage of Q over D is equivalent to the lineage of
   the stretched Q over the block-stretched D. *)
let diagram_tests =
  [ qtest "commutative diagram (q0 databases)" ~count:25
      (QCheck.make
         ~print:(fun (a, b, s) -> Printf.sprintf "a=%d b=%d seed=%d" a b s)
         QCheck.Gen.(
           let* a = int_range 1 3 in
           let* b = int_range 1 3 in
           let* s = int_range 0 99999 in
           return (a, b, s)))
      (fun (a, b, seed) ->
         let db, q = random_q0_db ~a ~b ~density:0.6 ~seed in
         let st = Random.State.make [| seed + 1 |] in
         let widths _ = Random.State.int st 3 in
         (* freeze widths per variable *)
         let table = Hashtbl.create 8 in
         let widths v =
           match Hashtbl.find_opt table v with
           | Some w -> w
           | None ->
             let w = widths v in
             Hashtbl.replace table v w;
             w
         in
         let qt, _ = Stretch.stretch_query ~is_endogenous:(is_endo db) q in
         let dbt, blocks = Stretch.or_substituted_db ~widths db in
         let f = Lineage.lineage_formula db q in
         (* The same widths, applied at the formula level.  Fresh-variable
            names differ between the two routes, so compare counts of both
            plus semantic equivalence after aligning blocks. *)
         let f_sub = Subst.apply
             (fun v ->
                match List.assoc_opt v blocks with
                | Some zs -> Formula.or_ (List.map Formula.var zs)
                | None -> Formula.var v)
             f
         in
         let f_stretched = Lineage.lineage_formula dbt qt in
         Semantics.equivalent f_sub f_stretched);
    qtest "commutative diagram (hierarchical query)" ~count:20
      (QCheck.make QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let st = Random.State.make [| seed |] in
         let db = Database.create () in
         Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
         Database.declare db "S" ~kind:Database.Exogenous ~arity:2;
         for i = 0 to 2 do
           ignore (Database.insert db "R" [| Value.int i |])
         done;
         for i = 0 to 2 do
           for j = 0 to 1 do
             if Random.State.bool st then
               ignore (Database.insert db "S" [| Value.int i; Value.int j |])
           done
         done;
         let q = Db_parser.parse_query "R(x), S(x, y)" in
         let widths v = (v mod 3) in
         let qt, _ = Stretch.stretch_query ~is_endogenous:(is_endo db) q in
         let dbt, blocks = Stretch.or_substituted_db ~widths db in
         let f_sub =
           Subst.apply
             (fun v ->
                match List.assoc_opt v blocks with
                | Some zs -> Formula.or_ (List.map Formula.var zs)
                | None -> Formula.var v)
             (Lineage.lineage_formula db q)
         in
         Semantics.equivalent f_sub (Lineage.lineage_formula dbt qt))
  ]

let claim52_tests =
  [ t "collapse keeps the lineage (worked example 16)" (fun () ->
        (* D̃': R={(1,a),(2,a)}, T={(1,b),(2,b)}, S={(a,b)} — stretched *)
        let dbt = Database.create () in
        Database.declare dbt "R" ~kind:Database.Endogenous ~arity:2;
        Database.declare dbt "S" ~kind:Database.Exogenous ~arity:2;
        Database.declare dbt "T" ~kind:Database.Endogenous ~arity:2;
        ignore (Database.insert dbt "R" [| Value.int 1; Value.str "a" |]);
        ignore (Database.insert dbt "R" [| Value.int 2; Value.str "a" |]);
        ignore (Database.insert dbt "T" [| Value.int 1; Value.str "b" |]);
        ignore (Database.insert dbt "T" [| Value.int 2; Value.str "b" |]);
        ignore (Database.insert dbt "S" [| Value.str "a"; Value.str "b" |]);
        (* Lineage of stretched q0 over D̃': all four pairs *)
        let q0 = Stretch.q0 () in
        let qt, _ = Stretch.stretch_query ~is_endogenous:(fun n -> n <> "S") q0 in
        let f_stretched = Lineage.lineage_formula dbt qt in
        Alcotest.(check bool) "all pairs" true
          (Semantics.equivalent f_stretched
             (Parser.formula_of_string_exn
                "x1 & x3 | x1 & x4 | x2 & x3 | x2 & x4"));
        (* Collapsing gives a Q0 database with the same lineage. *)
        let db' = Stretch.collapse_q0 dbt in
        Alcotest.check formula "same lineage"
          f_stretched
          (Lineage.lineage_formula db' q0));
    qtest "or_substituted_q0_db realizes the OR-substitution within C_Q0"
      ~count:20
      (QCheck.make QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         let db, q = random_q0_db ~a:2 ~b:2 ~density:0.7 ~seed in
         let widths v = ((v + seed) mod 3) in
         let db', blocks = Stretch.or_substituted_q0_db ~widths db in
         let f_sub =
           Subst.apply
             (fun v ->
                match List.assoc_opt v blocks with
                | Some zs -> Formula.or_ (List.map Formula.var zs)
                | None -> Formula.var v)
             (Lineage.lineage_formula db q)
         in
         Semantics.equivalent f_sub (Lineage.lineage_formula db' q))
  ]

let hardness_tests =
  [ t "encode produces the right lineage" (fun () ->
        let inst = Bipartite.make ~a:2 ~b:2 [ (0, 0); (1, 1) ] in
        let db, q = Hardness.encode inst in
        let f = Lineage.lineage_formula db q in
        Alcotest.(check bool) "x1&x3 | x2&x4" true
          (Semantics.equivalent f
             (Parser.formula_of_string_exn "x1 & x3 | x2 & x4")));
    t "oracle_calls is n^2" (fun () ->
        let inst = Bipartite.make ~a:2 ~b:3 [] in
        Alcotest.(check int) "25" 25 (Hardness.oracle_calls inst));
    qtest "counting bipartite DNF through the Q0 Shapley oracle" ~count:8
      (QCheck.make
         ~print:(fun (a, b, s) -> Printf.sprintf "a=%d b=%d seed=%d" a b s)
         QCheck.Gen.(
           let* a = int_range 1 2 in
           let* b = int_range 1 2 in
           let* s = int_range 0 9999 in
           return (a, b, s)))
      (fun (a, b, seed) ->
         let inst = Bipartite.random ~a ~b ~density:0.6 ~seed in
         Bigint.equal (Bipartite.count inst)
           (Hardness.count_via_q0_shapley ~oracle:Hardness.reference_oracle
              inst))
  ]

(* Definition 10 is for positive queries. *)
let refusal_tests =
  [ t "definition 10: a negated endogenous atom is refused" (fun () ->
        let q = Db_parser.parse_query "R(x), !S(x)" in
        Alcotest.check_raises "negated S"
          (Invalid_argument
             "Stretch.stretch_query: negated endogenous atom S (Definition \
              10 is for positive queries)")
          (fun () ->
            ignore (Stretch.stretch_query ~is_endogenous:(fun _ -> true) q));
        (* a negated exogenous atom is kept as it is *)
        let qt, zs =
          Stretch.stretch_query ~is_endogenous:(fun n -> n <> "S") q
        in
        Alcotest.(check string) "exogenous negation kept" "R(z$1, x), !S(x)"
          (Cq.to_string qt);
        Alcotest.(check (list string)) "one fresh variable" [ "z$1" ] zs) ]

let suite =
  stretch_tests @ diagram_tests @ claim52_tests @ hardness_tests
  @ refusal_tests

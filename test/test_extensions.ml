(** Tests for read-once factoring and beta-acyclicity. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let parse = Parser.formula_of_string_exn
let vs = Vset.of_list

let read_once_tests =
  [ t "single clause factors as AND" (fun () ->
        match Read_once.factor [ vs [ 1; 2; 3 ] ] with
        | Some tree ->
          Alcotest.(check bool) "equiv" true
            (Semantics.equivalent (Read_once.tree_to_formula tree)
               (parse "x1 & x2 & x3"))
        | None -> Alcotest.fail "expected read-once");
    t "x2 & (x1 | x3) from its DNF" (fun () ->
        match Read_once.factor [ vs [ 1; 2 ]; vs [ 2; 3 ] ] with
        | Some tree ->
          let f = Read_once.tree_to_formula tree in
          Alcotest.(check bool) "equiv" true
            (Semantics.equivalent f (parse "x2 & (x1 | x3)"));
          (* every variable exactly once *)
          Alcotest.(check int) "3 leaves" 3
            (Vset.cardinal (Read_once.tree_vars tree))
        | None -> Alcotest.fail "expected read-once");
    t "majority is not read-once" (fun () ->
        Alcotest.(check bool) "not ro" false
          (Read_once.is_read_once
             [ vs [ 1; 2 ]; vs [ 2; 3 ]; vs [ 1; 3 ] ]));
    t "bipartite path P4 is not read-once" (fun () ->
        (* x1x2 | x2x3 | x3x4: co-occurrence graph is a P4 *)
        Alcotest.(check bool) "not ro" false
          (Read_once.is_read_once
             [ vs [ 1; 2 ]; vs [ 2; 3 ]; vs [ 3; 4 ] ]));
    t "disjoint union factors as OR" (fun () ->
        match Read_once.factor [ vs [ 1; 2 ]; vs [ 3 ] ] with
        | Some tree ->
          Alcotest.(check bool) "equiv" true
            (Semantics.equivalent (Read_once.tree_to_formula tree)
               (parse "x1 & x2 | x3"))
        | None -> Alcotest.fail "expected read-once");
    t "constants rejected" (fun () ->
        Alcotest.(check bool) "false" true
          (try
             ignore (Read_once.factor []);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "true" true
          (try
             ignore (Read_once.factor [ Vset.empty ]);
             false
           with Invalid_argument _ -> true));
    t "absorption handled by minimization" (fun () ->
        (* x1 | x1&x2 = x1 *)
        match Read_once.factor [ vs [ 1 ]; vs [ 1; 2 ] ] with
        | Some (Read_once.Leaf 1) -> ()
        | Some _ -> Alcotest.fail "expected leaf x1"
        | None -> Alcotest.fail "expected read-once");
    qtest "read-once trees round-trip through their DNF" ~count:50
      (QCheck.make
         ~print:(fun s -> Printf.sprintf "seed=%d" s)
         QCheck.Gen.(int_range 0 99999))
      (fun seed ->
         (* generate a random read-once tree, convert to DNF, re-factor *)
         let st = Random.State.make [| seed |] in
         let counter = ref 0 in
         let rec build depth =
           if depth = 0 || Random.State.int st 3 = 0 then begin
             incr counter;
             Read_once.Leaf !counter
           end
           else begin
             let k = 2 + Random.State.int st 2 in
             let children = List.init k (fun _ -> build (depth - 1)) in
             if Random.State.bool st then Read_once.And children
             else Read_once.Or children
           end
         in
         let tree = build 3 in
         let f = Read_once.tree_to_formula tree in
         QCheck.assume (not (Vset.is_empty (Formula.vars f)));
         match Read_once.factor (Nf.formula_to_pdnf f) with
         | None -> false
         | Some tree' ->
           Semantics.equivalent f (Read_once.tree_to_formula tree'));
    qtest "factored form agrees with the source on Shapley values" ~count:25
      (arb_pdnf ~nvars:5 ~clauses:3)
      (fun d ->
         let d = Nf.pdnf_minimize d in
         QCheck.assume (d <> [] && not (List.exists Vset.is_empty d));
         match Read_once.factor d with
         | None -> QCheck.assume_fail ()
         | Some tree ->
           let f = Nf.pdnf_to_formula d in
           let vars = Vset.elements (Nf.pdnf_vars d) in
           let a = Naive.shap_subsets ~vars f in
           let b =
             Circuit_shapley.shap_direct ~vars
               (Compile.compile (Read_once.tree_to_formula tree))
           in
           List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b)
  ]

let hypergraph_tests =
  [ t "chain CNF is beta-acyclic" (fun () ->
        Alcotest.(check bool) "chain" true
          (Hypergraph.is_beta_acyclic
             [ vs [ 1; 2 ]; vs [ 2; 3 ]; vs [ 3; 4 ] ]));
    t "triangle is not beta-acyclic" (fun () ->
        Alcotest.(check bool) "triangle" false
          (Hypergraph.is_beta_acyclic
             [ vs [ 1; 2 ]; vs [ 2; 3 ]; vs [ 1; 3 ] ]));
    t "alpha-acyclic but beta-cyclic example" (fun () ->
        (* classic: edges {1,2,3}, {1,2}, {2,3}, {1,3} — the big edge makes
           it alpha-acyclic, the inner triangle stays beta-cyclic *)
        Alcotest.(check bool) "beta-cyclic" false
          (Hypergraph.is_beta_acyclic
             [ vs [ 1; 2; 3 ]; vs [ 1; 2 ]; vs [ 2; 3 ]; vs [ 1; 3 ] ]));
    t "nested chain is beta-acyclic" (fun () ->
        Alcotest.(check bool) "nested" true
          (Hypergraph.is_beta_acyclic
             [ vs [ 1 ]; vs [ 1; 2 ]; vs [ 1; 2; 3 ] ]));
    t "empty and singleton" (fun () ->
        Alcotest.(check bool) "empty" true (Hypergraph.is_beta_acyclic []);
        Alcotest.(check bool) "singleton" true
          (Hypergraph.is_beta_acyclic [ vs [ 1; 2; 3 ] ]));
    t "read-once CNF family of E13 is beta-acyclic" (fun () ->
        let edges = List.init 10 (fun i -> vs [ (2 * i) + 1; (2 * i) + 2 ]) in
        Alcotest.(check bool) "yes" true (Hypergraph.is_beta_acyclic edges));
    t "cnf wrapper" (fun () ->
        let cnf =
          [ Nf.clause ~pos:[ 1 ] ~neg:[ 2 ]; Nf.clause ~pos:[ 2; 3 ] ~neg:[] ]
        in
        Alcotest.(check bool) "acyclic" true (Hypergraph.is_beta_acyclic_cnf cnf))
  ]

let suite = read_once_tests @ hypergraph_tests

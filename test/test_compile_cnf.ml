(** Tests for compiling CNF through the one search, whose unit rule
    propagates literals, and for the interaction index. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let r = Rat.of_ints
let parse = Parser.formula_of_string_exn
let vs = Vset.of_list

(* random CNF generator: clauses of 1-3 literals over nvars variables *)
let gen_cnf ~nvars ~clauses =
  let open QCheck.Gen in
  let literal =
    let* v = int_range 1 nvars in
    let* sign = bool in
    return (v, sign)
  in
  let clause =
    let* lits = list_size (int_range 1 3) literal in
    let pos = List.filter_map (fun (v, s) -> if s then Some v else None) lits in
    let neg = List.filter_map (fun (v, s) -> if not s then Some v else None) lits in
    (* drop tautologies by removing overlaps from neg *)
    let neg = List.filter (fun v -> not (List.mem v pos)) neg in
    if pos = [] && neg = [] then return None
    else return (Some (Nf.clause ~pos ~neg))
  in
  let* cs = list_size (int_range 1 clauses) clause in
  return (List.filter_map Fun.id cs)

let arb_cnf ~nvars ~clauses =
  QCheck.make
    ~print:(fun cnf -> Formula.to_string (Nf.cnf_to_formula cnf))
    (gen_cnf ~nvars ~clauses)

(* What `shapmc dimacs -w shap|wmc` compiles: the CNF as a formula. *)
let compile cnf = Compile.compile (Nf.cnf_to_formula cnf)

let compile_cnf_tests =
  [ t "compiles example formulas" (fun () ->
        (* (x1 | !x2) & (x2 | x3) *)
        let cnf =
          [ Nf.clause ~pos:[ 1 ] ~neg:[ 2 ]; Nf.clause ~pos:[ 2; 3 ] ~neg:[] ]
        in
        let c = compile cnf in
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:5 c (Nf.cnf_to_formula cnf));
        Alcotest.(check bool) "det" true
          (Circuit.check_deterministic ~max_vars:5 c));
    t "unit propagation produces no decisions on Horn chains" (fun () ->
        (* x1, (!x1|x2), (!x2|x3): x1 is a unit, then x2, then x3 is all
           that is left *)
        let cnf =
          [ Nf.clause ~pos:[ 1 ] ~neg:[];
            Nf.clause ~pos:[ 2 ] ~neg:[ 1 ];
            Nf.clause ~pos:[ 3 ] ~neg:[ 2 ] ]
        in
        let c, stats = Compile.compile_with_stats (Nf.cnf_to_formula cnf) in
        Alcotest.(check int) "no decisions" 0 stats.Dpll.branches;
        Alcotest.(check int) "propagated" 3 stats.Dpll.propagations;
        Alcotest.(check bool) "equiv x1&x2&x3" true
          (Circuit.equivalent_formula ~max_vars:5 c (parse "x1 & x2 & x3")));
    t "unsatisfiable CNF compiles to false" (fun () ->
        let cnf =
          [ Nf.clause ~pos:[ 1 ] ~neg:[]; Nf.clause ~pos:[] ~neg:[ 1 ] ]
        in
        Alcotest.(check bool) "false" true (compile cnf == Circuit.cfalse);
        (* both signs of a unit, beside a clause that still mentions it *)
        let f = parse "x1 & !x1 & (x1 | x2)" in
        Alcotest.(check bool) "false with a clause" true
          (Compile.compile f == Circuit.cfalse);
        Alcotest.check bigint "counts 0" Bigint.zero
          (Dpll.count_universe ~vars:[ 1; 2 ] f));
    t "empty CNF compiles to true" (fun () ->
        Alcotest.(check bool) "true" true (compile [] == Circuit.ctrue));
    t "empty clause compiles to false" (fun () ->
        Alcotest.(check bool) "false" true
          (compile [ { Nf.pos = Vset.empty; Nf.neg = Vset.empty } ]
           == Circuit.cfalse));
    t "dimacs pipeline end to end" (fun () ->
        let inst = Dimacs.parse_string "p cnf 4 3\n1 -2 0\n2 3 0\n-3 4 0\n" in
        let f = Dimacs.to_formula inst in
        let vars = Dimacs.variables inst in
        Alcotest.check bigint "count matches brute force"
          (Brute.count ~vars f)
          (Count.count ~vars (Compile.compile f)));
    qtest "cnf compiler = dpll on random CNF" ~count:80
      (arb_cnf ~nvars:6 ~clauses:6)
      (fun cnf ->
         QCheck.assume (cnf <> []);
         let f = Nf.cnf_to_formula cnf in
         let c = compile cnf in
         let vars = List.init 6 succ in
         let n = Brute.count ~vars f in
         Bigint.equal n (Dpll.count_universe ~vars f)
         && Bigint.equal n (Count.count ~vars c));
    qtest "cnf compiler output is deterministic" ~count:40
      (arb_cnf ~nvars:5 ~clauses:5)
      (fun cnf ->
         QCheck.assume (cnf <> []);
         Circuit.check_deterministic ~max_vars:10 (compile cnf));
    qtest "Shapley through the cnf compiler = naive" ~count:30
      (arb_cnf ~nvars:5 ~clauses:4)
      (fun cnf ->
         QCheck.assume (cnf <> []);
         let f = Nf.cnf_to_formula cnf in
         let vars = List.init 5 succ in
         let a = Naive.shap_subsets ~vars f in
         let b = Circuit_shapley.shap_direct ~vars (compile cnf) in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b)
  ]

let interaction_tests =
  [ t "AND of two variables has interaction 1" (fun () ->
        let c = Compile.compile (parse "x1 & x2") in
        Alcotest.check rat "1" Rat.one
          (Circuit_shapley.interaction ~vars:[ 1; 2 ] c 1 2));
    t "OR of two variables has interaction -1" (fun () ->
        let c = Compile.compile (parse "x1 | x2") in
        Alcotest.check rat "-1" (r (-1) 1)
          (Circuit_shapley.interaction ~vars:[ 1; 2 ] c 1 2));
    t "complementary variables across an AND interact positively" (fun () ->
        (* in (x1|x2) & (x3|x4), turning x1 and x3 on together completes
           the conjunction: positive interaction *)
        let c = Compile.compile (parse "(x1 | x2) & (x3 | x4)") in
        Alcotest.(check bool) "positive" true
          (Rat.sign (Circuit_shapley.interaction ~vars:[ 1; 2; 3; 4 ] c 1 3)
           > 0));
    t "symmetry I(i,j) = I(j,i)" (fun () ->
        let c = Compile.compile example2_formula in
        Alcotest.check rat "sym"
          (Circuit_shapley.interaction ~vars:example2_vars c 1 3)
          (Circuit_shapley.interaction ~vars:example2_vars c 3 1));
    t "argument validation" (fun () ->
        let c = Compile.compile (parse "x1 & x2") in
        List.iter
          (fun f ->
             Alcotest.(check bool) "raises" true
               (try
                  ignore (f ());
                  false
                with Invalid_argument _ -> true))
          [ (fun () -> Circuit_shapley.interaction ~vars:[ 1; 2 ] c 1 1);
            (fun () -> Circuit_shapley.interaction ~vars:[ 1; 2 ] c 1 9) ]);
    qtest "circuit interaction = naive reference" ~count:40
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (List.length vars >= 2);
         let i = List.nth vars 0 and j = List.nth vars 1 in
         let c = Compile.compile f in
         Rat.equal
           (Circuit_shapley.interaction ~vars c i j)
           (Circuit_shapley.interaction_naive ~vars f i j));
    qtest "interaction of a variable with a dummy is 0" ~count:30
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         (* add a fresh dummy variable to the universe *)
         let dummy = 99 in
         let universe = vars @ [ dummy ] in
         let c = Compile.compile f in
         Rat.is_zero
           (Circuit_shapley.interaction ~vars:universe c (List.hd vars) dummy))
  ]

let () = ignore vs
let () = ignore r

let suite = compile_cnf_tests @ interaction_tests

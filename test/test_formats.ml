(** Tests for DIMACS / NNF interchange, weighted model counting,
    provenance semirings, and the cooperative-game module. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let r = Rat.of_ints

let dimacs_tests =
  [ t "parses a classic instance" (fun () ->
        let inst =
          Dimacs.parse_string
            "c example\np cnf 3 2\n1 -2 0\n2 3 0\n"
        in
        Alcotest.(check int) "vars" 3 inst.Dimacs.num_vars;
        Alcotest.(check int) "clauses" 2 (List.length inst.Dimacs.clauses);
        Alcotest.check bigint "count"
          (Brute.count ~vars:(Dimacs.variables inst) (Dimacs.to_formula inst))
          (Dpll.count_universe ~vars:(Dimacs.variables inst)
             (Dimacs.to_formula inst)));
    t "multi-line clauses and comments" (fun () ->
        let inst = Dimacs.parse_string "p cnf 2 1\nc mid comment\n1\n2 0\n" in
        Alcotest.(check int) "one clause" 1 (List.length inst.Dimacs.clauses));
    t "weight lines" (fun () ->
        let inst =
          Dimacs.parse_string
            "p cnf 2 1\nc p weight 1 1/3 0\nc p weight 2 0.25 0\n1 2 0\n"
        in
        Alcotest.check rat "w1" (r 1 3) (List.assoc 1 inst.Dimacs.weights);
        Alcotest.check rat "w2" (r 1 4) (List.assoc 2 inst.Dimacs.weights));
    t "tautological clauses dropped" (fun () ->
        let inst = Dimacs.parse_string "p cnf 1 1\n1 -1 0\n" in
        Alcotest.(check int) "dropped" 0 (List.length inst.Dimacs.clauses));
    t "weight validation" (fun () ->
        let contains ~sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        let expect_err ~sub s =
          match Dimacs.parse_string s with
          | _ -> Alcotest.failf "accepted %S" s
          | exception Invalid_argument m ->
            if not (contains ~sub m) then
              Alcotest.failf "error %S does not mention %S" m sub
        in
        (* out-of-range variable, with the declaring line's number *)
        expect_err ~sub:"out of range"
          "p cnf 2 1\nc p weight 5 1/2 0\n1 2 0\n";
        expect_err ~sub:"line 2" "p cnf 2 1\nc p weight 5 1/2 0\n1 2 0\n";
        (* duplicate declaration, reported at the later line *)
        expect_err ~sub:"duplicate"
          "p cnf 2 1\nc p weight 1 1/2 0\nc p weight 1 1/3 0\n1 2 0\n";
        expect_err ~sub:"line 3"
          "p cnf 2 1\nc p weight 1 1/2 0\nc p weight 1 1/3 0\n1 2 0\n";
        (* 0 is not a literal *)
        expect_err ~sub:"weight literal" "p cnf 2 1\nc p weight 0 1/2 0\n1 2 0\n";
        (* negative-literal weights remain implied, not errors *)
        let inst =
          Dimacs.parse_string "p cnf 2 1\nc p weight -1 1/2 0\n1 2 0\n"
        in
        Alcotest.(check int) "implied" 0 (List.length inst.Dimacs.weights));
    t "errors" (fun () ->
        List.iter
          (fun s ->
             Alcotest.(check bool) s true
               (try
                  ignore (Dimacs.parse_string s);
                  false
                with Invalid_argument _ -> true))
          [ ""; "1 2 0\n"; "p cnf x 1\n"; "p cnf 2 1\n1 2\n" ]);
    t "print/parse roundtrip" (fun () ->
        let inst =
          Dimacs.parse_string "p cnf 4 3\n1 -2 0\n3 0\n-1 -3 4 0\n"
        in
        let inst' = Dimacs.parse_string (Dimacs.print inst) in
        Alcotest.(check bool) "same formula" true
          (Semantics.equivalent (Dimacs.to_formula inst)
             (Dimacs.to_formula inst')));
    t "declared universe counts unmentioned variables" (fun () ->
        let inst = Dimacs.parse_string "p cnf 3 1\n1 0\n" in
        Alcotest.check bigint "4" (bi 4)
          (Dpll.count_universe ~vars:(Dimacs.variables inst)
             (Dimacs.to_formula inst)))
  ]

let nnf_tests =
  [ t "export/import roundtrip on example 2" (fun () ->
        (* OBDD-derived circuits use only deterministic gates, the
           fragment NNF can express *)
        let m = Obdd.create_manager ~order:example2_vars in
        let c = Obdd.to_circuit m (Obdd.of_formula m example2_formula) in
        let c' = Nnf_io.import (Nnf_io.export c ~num_vars:3) in
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:5 c' example2_formula);
        Alcotest.check bigint "same count"
          (Count.count ~vars:example2_vars c)
          (Count.count ~vars:example2_vars c'));
    t "rejects disjoint OR gates" (fun () ->
        let g = Circuit.cor_disj [ Circuit.cvar 1; Circuit.cvar 2 ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Nnf_io.export g ~num_vars:2);
             false
           with Invalid_argument _ -> true));
    t "import rejects garbage" (fun () ->
        List.iter
          (fun s ->
             Alcotest.(check bool) s true
               (try
                  ignore (Nnf_io.import s);
                  false
                with Invalid_argument _ -> true))
          [ ""; "bogus\n"; "nnf 1 0 1\nX 3\n"; "nnf 2 1 1\nL 1\nA 1 5\n" ]);
    qtest "roundtrip preserves counts and Shapley" ~count:40
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let m = Obdd.create_manager ~order:vars in
         let c = Obdd.to_circuit m (Obdd.of_formula m f) in
         (* c2d literals lie in 1..num_vars: the header names the
            largest variable, not how many occur. *)
         let c' =
           Nnf_io.import (Nnf_io.export c ~num_vars:(List.fold_left max 0 vars))
         in
         Kvec.equal (Count.count_by_size ~vars c) (Count.count_by_size ~vars c')
         && List.for_all2
              (fun (i, x) (j, y) -> i = j && Rat.equal x y)
              (Circuit_shapley.shap_direct ~vars c)
              (Circuit_shapley.shap_direct ~vars c'))
  ]

(* The weighted count of a DIMACS instance as `shapmc dimacs -w wmc`
   computes it: the probability of the compiled circuit, weight 1/2 for
   variables without a weight line. *)
let wmc inst =
  let weights v =
    Option.value ~default:(r 1 2) (List.assoc_opt v inst.Dimacs.weights)
  in
  Prob.probability ~weights (Compile.compile (Dimacs.to_formula inst))

(* The same sum by enumeration: each model of the clauses weighs
   Π p_v over its true variables times Π (1 − p_v) over its false ones. *)
let wmc_by_enumeration ~weights inst =
  let vars = Dimacs.variables inst in
  let f = Dimacs.to_formula inst in
  let rec go env = function
    | [] ->
      if Formula.eval (fun v -> List.assoc v env) f then
        List.fold_left
          (fun acc (v, b) ->
             let p = weights v in
             Rat.mul acc (if b then p else Rat.sub Rat.one p))
          Rat.one env
      else Rat.zero
    | v :: rest ->
      Rat.add (go ((v, false) :: env) rest) (go ((v, true) :: env) rest)
  in
  go [] vars

(* DIMACS text: up to 6 clauses of 1-3 literals over 1..6, declaring an
   unmentioned 7th variable, with weight 1/(v+2) on every variable. *)
let arb_weighted_dimacs =
  let open QCheck.Gen in
  let lit = map2 (fun v pos -> if pos then v else -v) (int_range 1 6) bool in
  let clause =
    map
      (fun ls -> String.concat " " (List.map string_of_int ls) ^ " 0\n")
      (list_size (int_range 1 3) lit)
  in
  QCheck.make ~print:Fun.id
    (map
       (fun cs ->
         Printf.sprintf "p cnf 7 %d\n" (List.length cs)
         ^ String.concat ""
             (List.init 7 (fun i ->
                  Printf.sprintf "c p weight %d 1/%d 0\n" (i + 1) (i + 3)))
         ^ String.concat "" cs)
       (list_size (int_range 0 6) clause))

let wmc_tests =
  [ t "uniform half = count / 2^n over vars f" (fun () ->
        (* Example 2, x1 & (x2 | !x3), as a CNF *)
        let inst = Dimacs.parse_string "p cnf 3 2\n1 0\n2 -3 0\n" in
        Alcotest.check bigint "count" (bi 3)
          (Dpll.count_universe ~vars:(Dimacs.variables inst)
             (Dimacs.to_formula inst));
        Alcotest.check rat "3/8" (r 3 8) (wmc inst));
    t "weights of eliminated variables integrate out" (fun () ->
        (* x1 | x2: the x1 branch drops x2, and x3 is declared but never
           mentioned; P = p1 + (1-p1) p2 *)
        let inst =
          Dimacs.parse_string
            "p cnf 3 1\nc p weight 1 1/3 0\nc p weight 2 1/5 0\n1 2 0\n"
        in
        Alcotest.check rat "p" (r 7 15) (wmc inst));
    qtest "dimacs wmc = circuit probability" ~count:60 arb_weighted_dimacs
      (fun text ->
         let inst = Dimacs.parse_string text in
         Rat.equal (wmc inst)
           (wmc_by_enumeration ~weights:(fun v -> r 1 (v + 2)) inst))
  ]

let provenance_tests =
  [ t "boolean semiring evaluation = lineage" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        let f =
          Provenance.eval (module Provenance.Boolean_semiring) db q
            ~annotate:Formula.var
        in
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent f (Lineage.lineage_formula db q)));
    t "derivation counting" (fun () ->
        let db = example13_db () in
        Alcotest.check bigint "2 derivations" (bi 2)
          (Provenance.derivation_count db
             (Db_parser.parse_query "R1(x), R2(x)"));
        Alcotest.check bigint "4 derivations (cross product)" (bi 4)
          (Provenance.derivation_count db
             (Db_parser.parse_query "R1(x), R2(y)")));
    t "provenance polynomial of example 13" (fun () ->
        let db = example13_db () in
        let p =
          Provenance.provenance_polynomial db
            (Db_parser.parse_query "R1(x), R2(x)")
        in
        (* x1 x3 + x2 x4 *)
        Alcotest.(check int) "2 monomials" 2
          (List.length (Provenance.Polynomial.monomials p)));
    t "self-join exponents" (fun () ->
        let db = Database.create () in
        Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        let p =
          Provenance.provenance_polynomial db
            (Db_parser.parse_query "R(x), R(y)")
        in
        (* single derivation using the tuple twice: x1^2 *)
        Alcotest.(check bool) "x1^2" true
          (Provenance.Polynomial.monomials p = [ ([ (1, 2) ], 1) ]));
    t "tropical semiring gives cheapest derivation" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        (* costs: var v costs v *)
        let cost =
          Provenance.eval (module Provenance.Tropical) db q
            ~annotate:(fun v -> Provenance.Tropical.of_int v)
        in
        (* derivations cost 1+3=4 and 2+4=6 *)
        Alcotest.(check (option int)) "4" (Some 4)
          (Provenance.Tropical.to_int_opt cost));
    t "no derivation = semiring zero" (fun () ->
        let db = Database.create () in
        Stretch.declare_q0_schema db;
        ignore (Database.insert db "R" [| Value.int 1 |]);
        Alcotest.check bigint "0" Bigint.zero
          (Provenance.derivation_count db (Stretch.q0 ())));
    qtest "factorization: specializing N[X] commutes with evaluation"
      ~count:20
      (QCheck.make QCheck.Gen.(int_range 0 9999))
      (fun seed ->
         let db, q = random_q0_db ~a:2 ~b:2 ~density:0.7 ~seed in
         let p = Provenance.provenance_polynomial db q in
         (* evaluate the polynomial in the counting semiring with weights
            v -> v, vs direct annotated evaluation *)
         let h v = Bigint.of_int v in
         let lhs =
           Provenance.Polynomial.eval (module Provenance.Counting) h p
         in
         let rhs =
           Provenance.eval (module Provenance.Counting) db q ~annotate:h
         in
         Bigint.equal lhs rhs)
  ]

let game_tests =
  [ t "boolean game reproduces Naive" (fun () ->
        let g = Game.of_formula ~vars:example2_vars example2_formula in
        check_shap "equal"
          (Naive.shap_subsets ~vars:example2_vars example2_formula)
          (Game.shapley g));
    t "glove game" (fun () ->
        (* players 1,2 hold left gloves, 3 a right glove; a pair is worth 1 *)
        let wealth s =
          let lefts =
            Vset.cardinal (Vset.inter s (Vset.of_list [ 1; 2 ]))
          in
          let rights = if Vset.mem 3 s then 1 else 0 in
          Rat.of_int (min lefts rights)
        in
        let g = Game.make [ 1; 2; 3 ] wealth in
        let shap = Game.shapley g in
        Alcotest.check rat "right glove worth 2/3" (r 2 3) (List.assoc 3 shap);
        Alcotest.check rat "left gloves 1/6 each" (r 1 6) (List.assoc 1 shap));
    t "axioms on the glove game" (fun () ->
        let wealth s =
          let lefts = Vset.cardinal (Vset.inter s (Vset.of_list [ 1; 2 ])) in
          let rights = if Vset.mem 3 s then 1 else 0 in
          Rat.of_int (min lefts rights)
        in
        let g = Game.make [ 1; 2; 3 ] wealth in
        Alcotest.(check bool) "efficiency" true (Game.efficiency g);
        Alcotest.(check bool) "symmetry 1~2" true (Game.symmetry g 1 2);
        Alcotest.(check bool) "dummy (vacuous)" true (Game.dummy g 1));
    t "player cap" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Game.make (List.init 11 succ) (fun _ -> Rat.zero));
             false
           with Invalid_argument _ -> true));
    qtest "axioms hold on random boolean games" ~count:30
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (List.length vars >= 2);
         let g = Game.of_formula ~vars f in
         Game.efficiency g
         && List.for_all (fun i -> Game.dummy g i) vars
         && Game.symmetry g (List.nth vars 0) (List.nth vars 1));
    qtest "linearity" ~count:20
      (QCheck.pair (arb_formula ~nvars:3 ~depth:3) (arb_formula ~nvars:3 ~depth:3))
      (fun (f, gf) ->
         let vars = [ 1; 2; 3 ] in
         QCheck.assume
           (Vset.subset (Formula.vars f) (Vset.of_list vars)
            && Vset.subset (Formula.vars gf) (Vset.of_list vars));
         Game.linearity (Game.of_formula ~vars f) (Game.of_formula ~vars gf));
    qtest "game banzhaf = power-indices banzhaf" ~count:25
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let a = Game.banzhaf (Game.of_formula ~vars f) in
         let b = Power_indices.banzhaf ~vars f in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b)
  ]

(* A clause may name only the variables its header declares. *)
let dimacs_range_tests =
  [ t "clause literal outside the header's range names its line" (fun () ->
        List.iter
          (fun (text, line) ->
             match Dimacs.parse_string text with
             | _ -> Alcotest.failf "accepted %S" text
             | exception Invalid_argument m ->
               Alcotest.(check string) "message"
                 (Printf.sprintf
                    "Dimacs: variable 3 out of range 1..2 on line %d" line)
                 m)
          [ ("p cnf 2 1\n1 3 0\n", 2);
            ("p cnf 2 2\n1 2 0\nc spans lines\n-1\n-3 0\n", 5) ]) ]

let suite =
  dimacs_tests @ nnf_tests @ wmc_tests @ provenance_tests @ game_tests
  @ dimacs_range_tests

(** Tests for DIMACS / NNF interchange and weighted model counting. *)

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
  dimacs_tests @ nnf_tests @ wmc_tests @ dimacs_range_tests

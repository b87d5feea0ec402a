(** Tests for the formula AST, smart constructors, substitutions, the
    parser and normal forms. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let v = Formula.var
let parse = Parser.formula_of_string_exn

let smart_constructor_tests =
  [ t "constants fold" (fun () ->
        Alcotest.check formula "and [] = 1" Formula.tru (Formula.and_ []);
        Alcotest.check formula "or [] = 0" Formula.fls (Formula.or_ []);
        Alcotest.check formula "and absorbs 0" Formula.fls
          (Formula.and_ [ v 1; Formula.fls ]);
        Alcotest.check formula "or absorbs 1" Formula.tru
          (Formula.or_ [ v 1; Formula.tru ]);
        Alcotest.check formula "and drops 1" (v 1)
          (Formula.and_ [ Formula.tru; v 1 ]);
        Alcotest.check formula "or drops 0" (v 1)
          (Formula.or_ [ Formula.fls; v 1 ]));
    t "double negation" (fun () ->
        Alcotest.check formula "!!x = x" (v 1) (Formula.not_ (Formula.not_ (v 1)));
        Alcotest.check formula "!1 = 0" Formula.fls (Formula.not_ Formula.tru));
    t "flattening" (fun () ->
        let f = Formula.and_ [ Formula.conj2 (v 1) (v 2); v 3 ] in
        match Formula.view f with
        | Formula.And [ _; _; _ ] -> ()
        | _ -> Alcotest.failf "expected flat And, got %a" Formula.pp f);
    t "size per paper definition" (fun () ->
        (* x1 & (x2 | !x3): 3 vars + 1 not + 2 connectives = 6 *)
        Alcotest.(check int) "|F|" 6 (Formula.size example2_formula));
    t "vars" (fun () ->
        Alcotest.check vset "vars" (Vset.of_list [ 1; 2; 3 ])
          (Formula.vars example2_formula));
    t "restrict eliminates variable" (fun () ->
        let f = Formula.restrict 1 true example2_formula in
        Alcotest.(check bool) "gone" false (Vset.mem 1 (Formula.vars f));
        Alcotest.check formula "F[x1:=0] = 0" Formula.fls
          (Formula.restrict 1 false example2_formula))
  ]

let eval_tests =
  [ t "example 2 models" (fun () ->
        let models =
          Semantics.models ~vars:[| 1; 2; 3 |] example2_formula
        in
        let expected =
          [ Vset.of_list [ 1 ]; Vset.of_list [ 1; 2 ]; Vset.of_list [ 1; 2; 3 ] ]
        in
        Alcotest.(check int) "count" 3 (List.length models);
        List.iter2
          (fun a b -> Alcotest.check vset "model" a b)
          expected
          (List.sort Vset.compare models));
    t "equivalence" (fun () ->
        Alcotest.(check bool) "de morgan" true
          (Semantics.equivalent
             (parse "!(x1 & x2)")
             (parse "!x1 | !x2"));
        Alcotest.(check bool) "not equiv" false
          (Semantics.equivalent (parse "x1") (parse "x2")));
    t "tautology / satisfiable" (fun () ->
        Alcotest.(check bool) "taut" true (Semantics.tautology (parse "x1 | !x1"));
        Alcotest.(check bool) "unsat" false
          (Semantics.satisfiable (parse "x1 & !x1")));
    t "width cap" (fun () ->
        let big = Formula.and_ (List.init 30 (fun i -> v (i + 1))) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Semantics.equivalent big big);
             false
           with Invalid_argument _ -> true))
  ]

let subst_tests =
  [ t "or substitution example from Def 1" (fun () ->
        (* F = X1 ∧ (X2 ∨ ¬X3), X2 := Z1 ∨ Z2 *)
        let g, blocks =
          Subst.or_subst
            ~widths:(fun v -> if v = 2 then 2 else 1)
            example2_formula
        in
        Alcotest.(check int) "3 blocks" 3 (List.length blocks);
        let z2 = List.assoc 2 blocks in
        Alcotest.(check int) "width 2" 2 (List.length z2);
        (* new variable count: 1 + 2 + 1 *)
        Alcotest.(check int) "vars" 4 (Vset.cardinal (Formula.vars g)));
    t "width zero maps to false" (fun () ->
        let g, _ =
          Subst.or_subst ~widths:(fun v -> if v = 1 then 0 else 1)
            example2_formula
        in
        (* F[X1 := empty disjunction] = 0 *)
        Alcotest.check formula "false" Formula.fls g);
    t "isomorphic copy preserves counts" (fun () ->
        let g, blocks = Subst.or_subst ~widths:(fun _ -> 1) example2_formula in
        let gvars = List.concat_map snd blocks in
        Alcotest.check bigint "#F"
          (Brute.count ~vars:example2_vars example2_formula)
          (Brute.count ~vars:gvars g));
    t "universe variables get blocks" (fun () ->
        let g, blocks =
          Subst.uniform_or ~universe:(Vset.of_list [ 1; 2; 3; 4 ]) ~l:2 (v 1)
        in
        Alcotest.(check int) "4 blocks" 4 (List.length blocks);
        Alcotest.(check int) "g mentions only x1's block" 2
          (Vset.cardinal (Formula.vars g)));
    t "universe must cover formula" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Subst.uniform_or ~universe:(Vset.singleton 9) ~l:1 (v 1));
             false
           with Invalid_argument _ -> true));
    qtest "or-subst width 1 is isomorphism (same counts)" ~count:60
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let g, blocks = Subst.or_subst ~widths:(fun _ -> 1) f in
         let gvars = List.concat_map snd blocks in
         Kvec.equal
           (Brute.count_by_size ~vars f)
           (Brute.count_by_size ~vars:gvars g));
    qtest "restrict = width-0 block" ~count:60 (arb_formula ~nvars:4 ~depth:4)
      (fun f ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         let i = Vset.min_elt vars in
         let zapped, blocks =
           Subst.or_subst ~widths:(fun v -> if v = i then 0 else 1) f
         in
         let gvars = List.concat_map snd blocks in
         let restricted = Formula.restrict i false f in
         (* zapped is an isomorphic copy of restricted; counts agree *)
         Kvec.equal
           (Brute.count_by_size ~vars:gvars zapped)
           (Brute.count_by_size
              ~vars:(Vset.elements (Vset.remove i vars))
              restricted))
  ]

let parser_tests =
  [ t "parses example 2" (fun () ->
        Alcotest.check formula "roundtrip" example2_formula
          (parse "x1 & (x2 | !x3)"));
    t "precedence: and binds tighter" (fun () ->
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent (parse "x1 | x2 & x3")
             (parse "x1 | (x2 & x3)")));
    t "alternative operators" (fun () ->
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent (parse "x1 * x2 + ~x3") (parse "x1 & x2 | !x3")));
    t "named identifiers intern in order" (fun () ->
        let f, names = Parser.formula_of_string "alice & bob | alice" in
        Alcotest.(check int) "two names" 2 (List.length names);
        Alcotest.(check bool) "alice is 1" true
          (List.assoc 1 names = "alice");
        Alcotest.(check bool) "uses var 1" true (Vset.mem 1 (Formula.vars f)));
    t "x-numbered identifiers keep their index" (fun () ->
        let f = parse "x7 & x3" in
        Alcotest.check vset "vars" (Vset.of_list [ 3; 7 ]) (Formula.vars f));
    t "constants" (fun () ->
        Alcotest.check formula "1 & x1" (v 1) (parse "1 & x1");
        Alcotest.check formula "0 | 0" Formula.fls (parse "0 | 0"));
    t "errors are reported with position" (fun () ->
        List.iter
          (fun s ->
             Alcotest.(check bool) s true
               (try
                  ignore (parse s);
                  false
                with Invalid_argument msg ->
                  String.length msg > 0 && String.sub msg 0 6 = "Parser"))
          [ ""; "x1 &"; "(x1"; "x1 x2"; "x1 @ x2"; ")" ]);
    qtest "pp/parse roundtrip is equivalence-preserving" ~count:80
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let s = Formula.to_string f in
         Semantics.equivalent f (parse s))
  ]

let nf_tests =
  [ t "pdnf of formula" (fun () ->
        let d = Nf.formula_to_pdnf (parse "x1 & (x2 | x3)") in
        Alcotest.(check int) "clauses" 2 (List.length d);
        Alcotest.(check bool) "equiv" true
          (Semantics.equivalent (Nf.pdnf_to_formula d) (parse "x1 & (x2 | x3)")));
    t "pdnf rejects negation" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Nf.formula_to_pdnf (parse "!x1"));
             false
           with Invalid_argument _ -> true));
    t "pdnf minimize absorbs" (fun () ->
        let d = [ Vset.of_list [ 1 ]; Vset.of_list [ 1; 2 ]; Vset.of_list [ 1 ] ] in
        Alcotest.(check int) "one clause" 1 (List.length (Nf.pdnf_minimize d)));
    t "bipartite encoding separates parts" (fun () ->
        let d, left, right = Nf.bipartite ~edges:[ (0, 0); (1, 2) ] in
        Alcotest.(check int) "clauses" 2 (List.length d);
        Alcotest.(check bool) "parity" true
          (left 5 mod 2 = 0 && right 5 mod 2 = 1));
    t "clause overlap rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Nf.clause ~pos:[ 1 ] ~neg:[ 1 ]);
             false
           with Invalid_argument _ -> true));
    t "cnf and dnf to formula" (fun () ->
        let c = Nf.clause ~pos:[ 1 ] ~neg:[ 2 ] in
        Alcotest.(check bool) "cnf" true
          (Semantics.equivalent (Nf.cnf_to_formula [ c ]) (parse "x1 | !x2"));
        Alcotest.(check bool) "dnf" true
          (Semantics.equivalent (Nf.dnf_to_formula [ c ]) (parse "x1 & !x2")));
    qtest "pdnf conversion preserves semantics" ~count:60
      (arb_pdnf ~nvars:5 ~clauses:4)
      (fun d ->
         let f = Nf.pdnf_to_formula d in
         QCheck.assume (Nf.is_positive f);
         Semantics.equivalent f (Nf.pdnf_to_formula (Nf.formula_to_pdnf f)));
    qtest "pdnf_eval agrees with formula eval" ~count:60
      (QCheck.pair (arb_pdnf ~nvars:5 ~clauses:4)
         (QCheck.make QCheck.Gen.(list_size (int_range 0 5) (int_range 1 5))))
      (fun (d, s) ->
         let s = Vset.of_list s in
         Nf.pdnf_eval d s = Formula.eval_set s (Nf.pdnf_to_formula d))
  ]

(* Walks [order] through a walker over [universe], checking after every
   step (and again after a reset, walking [order] backwards) that its
   value is [Formula.eval_set] of the prefix, which stays the reference. *)
let walk_matches_eval_set ~universe ~order f =
  let players = Array.of_list universe in
  let index v =
    let rec find i = if players.(i) = v then i else find (i + 1) in
    find 0
  in
  let w = Walker.start (Walker.compile ~players f) in
  let walk order =
    let agree prefix = Walker.value w = Formula.eval_set prefix f in
    agree Vset.empty
    && fst
         (List.fold_left
            (fun (ok, prefix) v ->
              Walker.add w (index v);
              let prefix = Vset.add v prefix in
              (ok && agree prefix, prefix))
            (true, Vset.empty) order)
  in
  let forward = walk order in
  Walker.reset w;
  forward && walk (List.rev order)

let walker_tests =
  let open Raw in
  [ t "walker edge cases built with raw constructors" (fun () ->
        List.iter
          (fun (name, f) ->
            Alcotest.(check bool) name true
              (walk_matches_eval_set ~universe:[ 1; 2 ] ~order:[ 1; 2 ] f
              && walk_matches_eval_set ~universe:[ 1; 2 ] ~order:[ 2; 1 ] f))
          [ ("And []", and_ []);
            ("Or []", or_ []);
            ("Not (Not (Var 1))", not_ (not_ (var 1)));
            ("And [True; Var 1]", and_ [ tru; var 1 ]);
            ("True", tru);
            ("False", fls);
            ("Not (And [True; Var 1])", not_ (and_ [ tru; var 1 ]));
            ("Or [Var 1; Not (Var 1)]", or_ [ var 1; not_ (var 1) ]);
            ("And [Var 1; Not (Var 1); Var 2]",
             and_ [ var 1; not_ (var 1); var 2 ]);
            ("Or [And []; Var 2]", or_ [ and_ []; var 2 ]) ]);
    t "walker rejects a repeated player and a stray variable" (fun () ->
        let raises what players f =
          Alcotest.(check bool) what true
            (try
               ignore (Walker.compile ~players f);
               false
             with Invalid_argument _ -> true)
        in
        raises "repeated player" [| 1; 2; 1 |] (var 1);
        raises "variable outside players" [| 1; 2 |] (and_ [ var 1; var 3 ]));
    qtest "walker value = eval_set of every prefix" ~count:200
      (QCheck.pair
         (arb_formula ~nvars:8 ~depth:5)
         (QCheck.make
            ~print:(fun l -> String.concat "," (List.map string_of_int l))
            (QCheck.Gen.shuffle_l (List.init 10 succ))))
      (fun (f, order) ->
         (* players 9 and 10 never occur in f *)
         walk_matches_eval_set ~universe:(List.init 10 succ) ~order f) ]

(* ------------------------------------------------------------------ *)
(* Parser ids, and the annotations every node carries. *)

let id_tests =
  [ t "parser: names take ids above every x<digits> of the input" (fun () ->
        List.iter
          (fun s -> Alcotest.check bigint s Bigint.one (Dpll.count (parse s)))
          [ "a & !x1"; "x1 & !a"; "x0x1 & !x1" ];
        Alcotest.(check (list (pair int string))) "a | b" [ (1, "a"); (2, "b") ]
          (List.sort compare (snd (Parser.formula_of_string "a | b")))) ]

let rec vars_of_view f =
  match Formula.view f with
  | Formula.True | Formula.False -> Vset.empty
  | Formula.Var v -> Vset.singleton v
  | Formula.Not g -> vars_of_view g
  | Formula.And gs | Formula.Or gs ->
    List.fold_left (fun s g -> Vset.union s (vars_of_view g)) Vset.empty gs

let rec subterms f =
  f
  :: (match Formula.view f with
      | Formula.Not g -> subterms g
      | Formula.And gs | Formula.Or gs -> List.concat_map subterms gs
      | _ -> [])

(* An equal formula of distinct, unsimplified nodes. *)
let rec raw_copy f =
  Formula.make
    (match Formula.view f with
     | Formula.Not g -> Formula.Not (raw_copy g)
     | Formula.And gs -> Formula.And (List.map raw_copy gs)
     | Formula.Or gs -> Formula.Or (List.map raw_copy gs)
     | v -> v)

let arb_restriction =
  QCheck.pair (arb_formula ~nvars:8 ~depth:5)
    (QCheck.small_list (QCheck.pair (QCheck.int_range 1 8) QCheck.bool))

let node_tests =
  [ qtest "nodes: cached vars = the variables of the view" ~count:200
      (arb_formula ~nvars:8 ~depth:5)
      (fun f ->
        List.for_all
          (fun g -> Vset.equal (Formula.vars g) (vars_of_view g))
          (subterms f @ subterms (raw_copy f)));
    qtest "nodes: equal implies equal hash" ~count:200
      (QCheck.pair (arb_formula ~nvars:4 ~depth:3) (arb_formula ~nvars:4 ~depth:3))
      (fun (f, g) ->
        let all = subterms f @ subterms g @ subterms (raw_copy f) in
        Formula.equal f (raw_copy f)
        && Formula.compare f (raw_copy f) = 0
        && List.for_all
             (fun a ->
               List.for_all
                 (fun b ->
                   (not (Formula.equal a b))
                   || (Formula.hash a = Formula.hash b && Formula.compare a b = 0))
                 all)
             all);
    qtest "nodes: restrict_set keeps a subtree missing the bindings (==)"
      ~count:200 arb_restriction
      (fun (f, bs) ->
        let misses g = List.for_all (fun (v, _) -> not (Vset.mem v (Formula.vars g))) bs in
        let reference =
          Formula.map_var
            (fun u ->
              match List.assoc_opt u bs with
              | Some b -> Formula.of_bool b
              | None -> Formula.var u)
            f
        in
        Formula.equal (Formula.restrict_set bs f) reference
        && Formula.equal (Formula.restrict_set bs (raw_copy f)) reference
        && List.for_all
             (fun g -> (not (misses g)) || Formula.restrict_set bs g == g)
             (subterms f));
    qtest "nodes: simplify returns smart-constructed nodes as they are"
      ~count:200 (arb_formula ~nvars:8 ~depth:5)
      (fun f ->
        List.for_all
          (fun g -> g.Formula.normal && Formula.simplify g == g)
          (subterms f)
        && (not (raw_copy f).Formula.normal)
        && Formula.equal (Formula.simplify (raw_copy f)) f) ]

let suite =
  smart_constructor_tests @ eval_tests @ subst_tests @ parser_tests @ nf_tests
  @ walker_tests @ id_tests @ node_tests

(** Tests for d-D circuits: construction invariants, counting,
    conditioning, Lemma 9 OR-substitution, and the d-DNNF compiler. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let parse = Parser.formula_of_string_exn
let cv = Circuit.cvar

(* Example 8's circuit: (¬X1 ∧ X2) ∨ (X1 ∧ X3). *)
let example8 =
  Circuit.cor_det
    [ Circuit.cand [ Circuit.cnot (cv 1); cv 2 ];
      Circuit.cand [ cv 1; cv 3 ] ]

let construction_tests =
  [ t "example 8 is deterministic and decomposable" (fun () ->
        Alcotest.(check bool) "det" true
          (Circuit.check_deterministic ~max_vars:10 example8);
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:10 example8
             (parse "!x1 & x2 | x1 & x3")));
    t "cand rejects shared variables" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Circuit.cand [ cv 1; Circuit.cnot (cv 1) ]);
             false
           with Invalid_argument _ -> true));
    t "cor_disj rejects shared variables" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Circuit.cor_disj [ cv 1; Circuit.cnot (cv 1) ]);
             false
           with Invalid_argument _ -> true);
        (* identical children are deduplicated before the check *)
        Alcotest.(check bool) "dedup" true (Circuit.cor_disj [ cv 1; cv 1 ] == cv 1));
    t "non-deterministic or is caught by the checker" (fun () ->
        (* X1 ∨ X2 as a "deterministic" or is not deterministic. *)
        let bad = Circuit.cor_det [ cv 1; cv 2 ] in
        Alcotest.(check bool) "caught" false
          (Circuit.check_deterministic ~max_vars:10 bad));
    t "constant simplification" (fun () ->
        Alcotest.(check bool) "and false" true
          (Circuit.cand [ cv 1; Circuit.cfalse ] == Circuit.cfalse);
        Alcotest.(check bool) "or true" true
          (Circuit.cor_det [ cv 1; Circuit.ctrue ] == Circuit.ctrue);
        Alcotest.(check bool) "singleton unwrap" true
          (Circuit.cand [ cv 1 ] == cv 1));
    t "hash consing shares" (fun () ->
        let a = Circuit.cand [ cv 1; cv 2 ] in
        let b = Circuit.cand [ cv 2; cv 1 ] in
        Alcotest.(check bool) "same node" true (a == b));
    t "size and edges" (fun () ->
        (* example8: 3 vars + 1 not + 2 ands + 1 or = 7 gates *)
        Alcotest.(check int) "size" 7 (Circuit.size example8);
        Alcotest.(check bool) "edges >= size-1" true
          (Circuit.edge_count example8 >= 6));
    t "eval" (fun () ->
        Alcotest.(check bool) "x2 only" true
          (Circuit.eval_set (Vset.of_list [ 2 ]) example8);
        Alcotest.(check bool) "x1 only" false
          (Circuit.eval_set (Vset.of_list [ 1 ]) example8);
        Alcotest.(check bool) "x1 x3" true
          (Circuit.eval_set (Vset.of_list [ 1; 3 ]) example8))
  ]

let count_tests =
  [ t "count example 8" (fun () ->
        (* models: 010,011,101,111 over x1x2x3 and 110? (¬1∧2)∨(1∧3):
           {2},{2,3},{1,3},{1,2,3} → 4 *)
        Alcotest.check bigint "4" (bi 4)
          (Count.count ~vars:[ 1; 2; 3 ] example8);
        Alcotest.check kvec "kvec"
          (Brute.count_by_size ~vars:[ 1; 2; 3 ] (Circuit.to_formula example8))
          (Count.count_by_size ~vars:[ 1; 2; 3 ] example8));
    t "count with larger universe" (fun () ->
        Alcotest.check bigint "8" (bi 8)
          (Count.count ~vars:[ 1; 2; 3; 4 ] example8));
    t "disjoint or counts over the full gate scope" (fun () ->
        (* Regression: the Cor (Disjoint, _) branch builds its result by
           convolving per-child complements; that only lands on the gate
           scope because cor_disj makes child scopes partition g.vars.
           Pin both the universe invariant and the counts (including a
           negated child, whose complement exercises smoothing). *)
        let g =
          Circuit.cor_disj
            [ Circuit.cand [ cv 1; cv 2 ];
              Circuit.cand [ Circuit.cnot (cv 3); cv 4 ] ]
        in
        let kv = Count.count_by_size ~vars:[ 1; 2; 3; 4 ] g in
        Alcotest.(check int) "universe = |vars g|"
          (Vset.cardinal (Circuit.vars g))
          (Kvec.universe_size kv);
        Alcotest.check kvec "counts = brute force"
          (Brute.count_by_size ~vars:[ 1; 2; 3; 4 ] (Circuit.to_formula g))
          kv;
        (* nested disjoint ors, still partitioning the scope *)
        let h = Circuit.cor_disj [ g; cv 5 ] in
        Alcotest.check kvec "nested"
          (Brute.count_by_size ~vars:[ 1; 2; 3; 4; 5 ] (Circuit.to_formula h))
          (Count.count_by_size ~vars:[ 1; 2; 3; 4; 5 ] h));
    t "universe check" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Count.count ~vars:[ 1 ] example8);
             false
           with Invalid_argument _ -> true));
    qtest "compiled circuit counting = brute force" ~count:80
      (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         Kvec.equal
           (Brute.count_by_size ~vars f)
           (Count.count_by_size ~vars c))
  ]

let condition_tests =
  [ t "restrict example 8" (fun () ->
        let c1 = Condition.restrict 1 true example8 in
        Alcotest.(check bool) "equiv x3" true
          (Circuit.equivalent_formula ~max_vars:5 c1 (parse "x3"));
        let c0 = Condition.restrict 1 false example8 in
        Alcotest.(check bool) "equiv x2" true
          (Circuit.equivalent_formula ~max_vars:5 c0 (parse "x2")));
    qtest "conditioning commutes with formula restrict" ~count:60
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         let i = Vset.min_elt vars in
         let c = Compile.compile f in
         Circuit.equivalent_formula ~max_vars:10
           (Condition.restrict i true c)
           (Formula.restrict i true f));
    qtest "conditioning preserves determinism" ~count:40
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         let i = Vset.min_elt vars in
         let c = Compile.compile f in
         Circuit.check_deterministic ~max_vars:10 (Condition.restrict i false c))
  ]

let or_subst_tests =
  [ t "det_or_chain" (fun () ->
        let chain = Or_subst.det_or_chain [ 1; 2; 3 ] in
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:5 chain (parse "x1 | x2 | x3"));
        Alcotest.(check bool) "det" true
          (Circuit.check_deterministic ~max_vars:5 chain);
        Alcotest.(check bool) "empty chain is false" true
          (Or_subst.det_or_chain [] == Circuit.cfalse));
    t "lemma 9 size bound O(|G| + k*l)" (fun () ->
        let g = example8 in
        let before = Circuit.size g in
        let g', _ = Or_subst.uniform_or ~l:10 g in
        (* Each of the 3 variables occurs once (k=1): bound ~ |G| + 3*c*10 *)
        Alcotest.(check bool) "linear growth" true
          (Circuit.size g' <= before + (3 * 4 * 10)));
    t "substituted circuit stays d-D and equivalent" (fun () ->
        let g', blocks = Or_subst.uniform_or ~l:2 example8 in
        Alcotest.(check bool) "det" true
          (Circuit.check_deterministic ~max_vars:12 g');
        let f, _ =
          Subst.or_subst
            ~widths:(fun _ -> 2)
            (Circuit.to_formula example8)
        in
        ignore blocks;
        (* same block allocation order: both substitute ascending vars *)
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:12 g' f));
    qtest "circuit or-subst = formula or-subst" ~count:40
      (QCheck.pair (arb_formula ~nvars:4 ~depth:3)
         (QCheck.make QCheck.Gen.(int_range 0 2)))
      (fun (f, w) ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         QCheck.assume (Vset.cardinal vars * (w + 1) <= 10);
         let widths v = if v mod 2 = 0 then w else w + 1 in
         let c = Compile.compile f in
         (* compile may drop variables; substitute over the full var set *)
         let c', _ = Or_subst.or_subst ~universe:vars ~widths c in
         let f', _ = Subst.or_subst ~widths f in
         Circuit.equivalent_formula ~max_vars:12 c' f');
    qtest "or-subst preserves determinism" ~count:40
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars) && Vset.cardinal vars <= 4);
         let c = Compile.compile f in
         let c', _ = Or_subst.uniform_or ~l:2 c in
         Circuit.check_deterministic ~max_vars:12 c')
  ]

let compile_tests =
  [ t "compiles example 2" (fun () ->
        let c = Compile.compile example2_formula in
        Alcotest.(check bool) "equiv" true
          (Circuit.equivalent_formula ~max_vars:5 c example2_formula);
        Alcotest.(check bool) "det" true
          (Circuit.check_deterministic ~max_vars:5 c));
    t "constants compile to constants" (fun () ->
        Alcotest.(check bool) "true" true (Compile.compile Formula.tru == Circuit.ctrue);
        Alcotest.(check bool) "unsat formula" true
          (Compile.compile (parse "x1 & !x1") == Circuit.cfalse));
    t "component decomposition fires" (fun () ->
        (* (x1|x2) & (x3|x4): decomposable AND at the top; few expansions *)
        let _, stats = Compile.compile_with_stats (parse "(x1|x2) & (x3|x4)") in
        Alcotest.(check bool) "at most 4 expansions" true
          (stats.Dpll.branches <= 4));
    qtest "compile preserves semantics" ~count:100
      (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         Circuit.equivalent_formula ~max_vars:10 (Compile.compile f) f);
    qtest "compile output passes determinism check" ~count:60
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         Circuit.check_deterministic ~max_vars:10 (Compile.compile f));
    t "lemma 9 on the search's own circuits: |C(F^(l))| <= |C(F)| + 3nl"
      (fun () ->
        let bound name f =
          let n = Vset.cardinal (Formula.vars f) in
          let base = Circuit.size (Compile.compile f) in
          for l = 1 to 8 do
            let size = Circuit.size (Compile.compile (fst (Subst.uniform_or ~l f))) in
            if size > base + (3 * n * l) then
              Alcotest.failf "%s, l=%d: %d gates, base %d, n=%d" name l size
                base n
          done
        in
        (* E7's implication chain *)
        bound "chain"
          (Formula.and_
             (List.init 11 (fun i ->
                  Formula.disj2
                    (Formula.not_ (Formula.var (i + 1)))
                    (Formula.var (i + 2)))));
        (* batch-reduce's two-literal DNFs: clause i holds x(i+1) *)
        let st = Random.State.make [| 9 |] in
        for n = 4 to 6 do
          for k = 1 to 4 do
            let lit v =
              if Random.State.bool st then Formula.var v
              else Formula.not_ (Formula.var v)
            in
            bound
              (Printf.sprintf "dnf n=%d #%d" n k)
              (Formula.or_
                 (List.init n (fun i ->
                      let u = 1 + ((i + 1 + Random.State.int st (n - 1)) mod n) in
                      Formula.and_ [ lit (i + 1); lit u ])))
          done
        done;
        for seed = 1 to 12 do
          bound
            (Printf.sprintf "nested #%d" seed)
            (QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |])
               (gen_formula ~nvars:5 ~depth:4))
        done)
  ]

let suite =
  construction_tests @ count_tests @ condition_tests @ or_subst_tests
  @ compile_tests

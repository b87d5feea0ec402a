(** Tests for the paper's core: reference algorithms, identities, the
    three reductions of Theorem 3.1, pipelines, and Theorem 4.1. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let r = Rat.of_ints
let parse = Parser.formula_of_string_exn

let naive_tests =
  [ t "example 2 Shapley values (permutations)" (fun () ->
        check_shap "perm"
          [ (1, r 5 6); (2, r 2 6); (3, r (-1) 6) ]
          (Naive.shap_permutations ~vars:example2_vars example2_formula));
    t "example 2 Shapley values (subsets)" (fun () ->
        check_shap "subsets"
          [ (1, r 5 6); (2, r 2 6); (3, r (-1) 6) ]
          (Naive.shap_subsets ~vars:example2_vars example2_formula));
    t "example 2 permutation table" (fun () ->
        let table =
          Naive.permutation_table ~vars:example2_vars example2_formula
        in
        Alcotest.(check int) "3! rows" 6 (List.length table);
        (* Row for Π = (1,3,2): marginals (1, 1, -1) per the paper. *)
        let row = List.assoc [ 1; 3; 2 ] table in
        Alcotest.(check (list int)) "marginals" [ 1; 1; -1 ] row;
        (* Column sums divided by 3! give the Shapley values. *)
        let col i = List.fold_left (fun a (_, row) -> a + List.nth row i) 0 table in
        Alcotest.(check int) "x1 column" 5 (col 0);
        Alcotest.(check int) "x2 column" 2 (col 1);
        Alcotest.(check int) "x3 column" (-1) (col 2));
    t "dummy player gets zero" (fun () ->
        let shap = Naive.shap_subsets ~vars:[ 1; 2 ] (Formula.var 1) in
        Alcotest.check rat "x2 = 0" Rat.zero (List.assoc 2 shap));
    t "symmetric players get equal values" (fun () ->
        let shap = Naive.shap_subsets ~vars:[ 1; 2 ] (parse "x1 | x2") in
        Alcotest.check rat "equal" (List.assoc 1 shap) (List.assoc 2 shap);
        Alcotest.check rat "1/2 each" (r 1 2) (List.assoc 1 shap));
    t "universe size matters" (fun () ->
        (* Shap of x1 in F=x1 alone is 1; with a spectator variable still 1 *)
        let s1 = Naive.shap_subsets ~vars:[ 1 ] (Formula.var 1) in
        let s2 = Naive.shap_subsets ~vars:[ 1; 9 ] (Formula.var 1) in
        Alcotest.check rat "alone" Rat.one (List.assoc 1 s1);
        Alcotest.check rat "with spectator" Rat.one (List.assoc 1 s2));
    t "permutation cap enforced" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Naive.shap_permutations ~vars:(List.init 9 succ) Formula.tru);
             false
           with Invalid_argument _ -> true));
    qtest "permutations = subsets" ~count:60 (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let a = Naive.shap_permutations ~vars f in
         let b = Naive.shap_subsets ~vars f in
         List.for_all2
           (fun (i, x) (j, y) -> i = j && Rat.equal x y)
           a b)
  ]

let identity_tests =
  [ t "example 6: efficiency on example 2" (fun () ->
        Alcotest.(check bool) "prop5" true
          (Identities.prop5 ~vars:example2_vars example2_formula));
    qtest "Proposition 3" ~count:40 (arb_formula ~nvars:4 ~depth:4) (fun f ->
        let vars = Vset.elements (Formula.vars f) in
        QCheck.assume (vars <> []);
        Identities.prop3 ~vars f);
    qtest "Proposition 5" ~count:60 (arb_formula ~nvars:5 ~depth:4) (fun f ->
        let vars = Vset.elements (Formula.vars f) in
        QCheck.assume (vars <> []);
        Identities.prop5 ~vars f);
    qtest "Claim 3.5 (OR-substitution counting)" ~count:40
      (QCheck.pair (arb_formula ~nvars:4 ~depth:3)
         (QCheck.make QCheck.Gen.(int_range 1 3)))
      (fun (f, l) ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         QCheck.assume (Vset.cardinal vars * l <= 12);
         Identities.claim35 ~l ~vars:(Vset.elements vars) f);
    qtest "Claim 3.7 (AND-substitution counting)" ~count:40
      (QCheck.pair (arb_formula ~nvars:4 ~depth:3)
         (QCheck.make QCheck.Gen.(int_range 1 3)))
      (fun (f, l) ->
         let vars = Formula.vars f in
         QCheck.assume (not (Vset.is_empty vars));
         QCheck.assume (Vset.cardinal vars * l <= 12);
         Identities.claim37 ~l ~vars:(Vset.elements vars) f);
    qtest "Claim 3.6" ~count:60 (arb_formula ~nvars:5 ~depth:4) (fun f ->
        let vars = Vset.elements (Formula.vars f) in
        QCheck.assume (vars <> []);
        Identities.claim36 ~vars f);
    qtest "Equality (7)" ~count:60 (arb_formula ~nvars:5 ~depth:4) (fun f ->
        let vars = Vset.elements (Formula.vars f) in
        QCheck.assume (vars <> []);
        Identities.eq7 ~vars f);
    qtest "Equality (8)" ~count:60 (arb_formula ~nvars:5 ~depth:4) (fun f ->
        let vars = Vset.elements (Formula.vars f) in
        QCheck.assume (vars <> []);
        Identities.eq8 ~vars f)
  ]

(* Direct check of the Lemma 3.4 weight repair: Shap(F^(l,i), Z_i) computed
   from the definition must equal Σ_j lemma34_weight(n,l,j) · d_j, and must
   NOT equal the paper's displayed Σ_j (2^l−1)^j c_j d_j for l ≥ 2 (on a
   witness where they differ). *)
let lemma34_repair_tests =
  let oracle_value f ~vars ~l ~keep =
    let universe = Vset.of_list vars in
    let g, blocks =
      Subst.or_subst ~universe ~widths:(fun v -> if v = keep then 1 else l) f
    in
    let z = List.hd (List.assoc keep blocks) in
    let gvars = List.concat_map snd blocks in
    List.assoc z (Naive.shap_subsets ~vars:gvars g)
  in
  let predicted weight f ~vars ~l ~keep =
    let n = List.length vars in
    let others = List.filter (fun v -> v <> keep) vars in
    let acc = ref Rat.zero in
    for j = 0 to n - 1 do
      let d =
        Bigint.sub
          (Kvec.get (Brute.count_by_size ~vars:others (Formula.restrict keep true f)) j)
          (Kvec.get (Brute.count_by_size ~vars:others (Formula.restrict keep false f)) j)
      in
      acc := Rat.add !acc (Rat.mul_bigint (weight ~n ~l ~j) d)
    done;
    !acc
  in
  let paper_weight ~n ~l ~j =
    Rat.mul_bigint
      (Combi.shapley_coeff ~n j)
      (Bigint.pow (Bigint.two_pow_minus_one l) j)
  in
  [ t "repaired weight reduces to c_j at l=1" (fun () ->
        for n = 1 to 6 do
          for j = 0 to n - 1 do
            Alcotest.check rat "c_j"
              (Combi.shapley_coeff ~n j)
              (Reductions.lemma34_weight ~n ~l:1 ~j)
          done
        done);
    t "paper's displayed identity fails at the documented witness" (fun () ->
        (* F = X1 ∧ X2, i = 1, l = 2: true value 2/3, paper's 3/2 *)
        let f = parse "x1 & x2" in
        let truth = oracle_value f ~vars:[ 1; 2 ] ~l:2 ~keep:1 in
        Alcotest.check rat "true value" (r 2 3) truth;
        Alcotest.check rat "paper value is 3/2" (r 3 2)
          (predicted paper_weight f ~vars:[ 1; 2 ] ~l:2 ~keep:1));
    qtest "repaired identity holds" ~count:30
      (QCheck.pair (arb_formula ~nvars:3 ~depth:3)
         (QCheck.make QCheck.Gen.(int_range 1 3)))
      (fun (f, l) ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         QCheck.assume (((List.length vars - 1) * l) + 1 <= 8);
         let keep = List.hd vars in
         Rat.equal
           (oracle_value f ~vars ~l ~keep)
           (predicted
              (fun ~n ~l ~j -> Reductions.lemma34_weight ~n ~l ~j)
              f ~vars ~l ~keep))
  ]

let reduction_tests =
  [ qtest "Lemma 3.3: kcounts from counting oracle" ~count:40
      (arb_formula ~nvars:4 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         Kvec.equal
           (Brute.count_by_size ~vars f)
           (Pipeline.kcounts_via_count_oracle
              ~oracle:Pipeline.dpll_count_oracle ~vars f));
    qtest "Lemma 3.3 AND-variant" ~count:30
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         let universe = Formula.vars f in
         let vars = Vset.elements universe in
         QCheck.assume (vars <> []);
         let n = List.length vars in
         let kv =
           Reductions.kcounts_via_counting_and ~n ~count_subst:(fun ~l ->
               let g, blocks = Subst.uniform_and ~universe ~l f in
               Dpll.count_universe ~vars:(List.concat_map snd blocks) g)
         in
         Kvec.equal (Brute.count_by_size ~vars f) kv);
    qtest "Lemma 3.2 + 3.3: Shapley from counting oracle" ~count:30
      (arb_formula ~nvars:4 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let reference = Naive.shap_subsets ~vars f in
         let via =
           Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
             ~vars f
         in
         List.for_all2
           (fun (i, x) (j, y) -> i = j && Rat.equal x y)
           reference via);
    qtest "Lemma 3.4: counting from Shapley oracle" ~count:20
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         QCheck.assume (List.length vars <= 3);
         Bigint.equal
           (Brute.count ~vars f)
           (Pipeline.count_via_shap_oracle
              ~oracle:Pipeline.shap_oracle_of_subsets ~vars f));
    t "Lemma 3.4 with spectator variables" (fun () ->
        (* universe strictly larger than vars(F) *)
        let f = parse "x1 & x2" in
        Alcotest.check bigint "over 4 vars" (bi 4)
          (Pipeline.count_via_shap_oracle
             ~oracle:Pipeline.shap_oracle_of_subsets ~vars:[ 1; 2; 3; 4 ] f));
    t "roundtrip # -> Shap -> # on example 2" (fun () ->
        Alcotest.check bigint "3" (bi 3)
          (Pipeline.roundtrip_count ~vars:example2_vars example2_formula));
    t "example 4 kcounts via oracle" (fun () ->
        (* #_k F[x1:=1] = (1,1,1) per Example 4 *)
        let f1 = Formula.restrict 1 true example2_formula in
        let kv =
          Pipeline.kcounts_via_count_oracle ~oracle:Pipeline.brute_count_oracle
            ~vars:[ 2; 3 ] f1
        in
        Alcotest.check kvec "(1,1,1)"
          (Kvec.make ~n:2 [| Bigint.one; Bigint.one; Bigint.one |])
          kv)
  ]

let circuit_shapley_tests =
  [ t "example 2 on compiled circuit (direct)" (fun () ->
        let c = Compile.compile example2_formula in
        check_shap "direct"
          [ (1, r 5 6); (2, r 2 6); (3, r (-1) 6) ]
          (Circuit_shapley.shap_direct ~vars:example2_vars c));
    t "example 2 on compiled circuit (via reduction)" (fun () ->
        let c = Compile.compile example2_formula in
        check_shap "reduction"
          [ (1, r 5 6); (2, r 2 6); (3, r (-1) 6) ]
          (Circuit_shapley.shap_via_reduction ~vars:example2_vars c));
    t "count via Shapley on circuit" (fun () ->
        let c = Compile.compile example2_formula in
        Alcotest.check bigint "3" (bi 3)
          (Circuit_shapley.count_via_shap ~vars:example2_vars c));
    qtest "circuit direct = naive" ~count:50 (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         let a = Naive.shap_subsets ~vars f in
         let b = Circuit_shapley.shap_direct ~vars c in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    qtest "circuit reduction route = direct route" ~count:25
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         let a = Circuit_shapley.shap_direct ~vars c in
         let b = Circuit_shapley.shap_via_reduction ~vars c in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    qtest "kcounts via reduction = direct circuit counter" ~count:30
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         Kvec.equal
           (Count.count_by_size ~vars c)
           (Circuit_shapley.kcounts_via_reduction ~vars c));
    qtest "circuit count via Shapley = brute" ~count:15
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         Bigint.equal (Brute.count ~vars f)
           (Circuit_shapley.count_via_shap ~vars c));
    qtest "obdd-exported circuits give the same Shapley values" ~count:30
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let m = Obdd.create_manager ~order:vars in
         let c = Obdd.to_circuit m (Obdd.of_formula m f) in
         let a = Naive.shap_subsets ~vars f in
         let b = Circuit_shapley.shap_direct ~vars c in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b)
  ]

let suite =
  naive_tests @ identity_tests @ lemma34_repair_tests @ reduction_tests
  @ circuit_shapley_tests

(** Tests for k-vectors, brute-force counting, the DPLL counter and the
    bipartite counter. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let parse = Parser.formula_of_string_exn

let kvec_of_ints n l = Kvec.make ~n (Array.of_list (List.map bi l))

let kvec_tests =
  [ t "example 2 vector" (fun () ->
        Alcotest.check kvec "(0,1,1,1)"
          (kvec_of_ints 3 [ 0; 1; 1; 1 ])
          (Brute.count_by_size ~vars:example2_vars example2_formula));
    t "total" (fun () ->
        Alcotest.check bigint "3" (bi 3)
          (Kvec.total (kvec_of_ints 3 [ 0; 1; 1; 1 ])));
    t "all and zero" (fun () ->
        Alcotest.check kvec "all(3)" (kvec_of_ints 3 [ 1; 3; 3; 1 ]) (Kvec.all ~n:3);
        Alcotest.check kvec "zero(2)" (kvec_of_ints 2 [ 0; 0; 0 ]) (Kvec.zero ~n:2));
    t "conv = independent conjunction" (fun () ->
        (* X over {X} times Y over {Y}: X∧Y over {X,Y} = (0,0,1) *)
        Alcotest.check kvec "x&y"
          (kvec_of_ints 2 [ 0; 0; 1 ])
          (Kvec.conv Kvec.singleton_true Kvec.singleton_true));
    t "extend smooths with binomials" (fun () ->
        (* X over {X} extended by 2 free vars: #_k = C(2,k-1) *)
        Alcotest.check kvec "x + 2 free"
          (kvec_of_ints 3 [ 0; 1; 2; 1 ])
          (Kvec.extend Kvec.singleton_true ~extra:2));
    t "complement" (fun () ->
        Alcotest.check kvec "!x"
          Kvec.singleton_false
          (Kvec.complement Kvec.singleton_true));
    t "disjoint_or" (fun () ->
        (* X ∨ Y over {X,Y}: models {X},{Y},{XY} → (0,2,1) *)
        Alcotest.check kvec "x|y"
          (kvec_of_ints 2 [ 0; 2; 1 ])
          (Kvec.disjoint_or Kvec.singleton_true Kvec.singleton_true));
    t "weighted_sum is claim 3.5 rhs" (fun () ->
        (* Σ (2^2−1)^k #_k for example 2: 0 + 3 + 9 + 27 = 39 *)
        Alcotest.check bigint "l=2" (bi 39)
          (Kvec.weighted_sum
             (kvec_of_ints 3 [ 0; 1; 1; 1 ])
             (Bigint.two_pow_minus_one 2)));
    t "mismatched universes rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Kvec.add (Kvec.all ~n:2) (Kvec.all ~n:3));
             false
           with Invalid_argument _ -> true));
    qtest "conv commutes and respects totals" ~count:60
      (QCheck.pair (arb_formula ~nvars:3 ~depth:3) (arb_formula ~nvars:3 ~depth:3))
      (fun (f, g) ->
         (* move g to fresh variables so universes are disjoint *)
         let g = Formula.rename (fun v -> v + 10) g in
         let vf = Vset.elements (Formula.vars f) in
         let vg = Vset.elements (Formula.vars g) in
         QCheck.assume (vf <> [] && vg <> []);
         let a = Brute.count_by_size ~vars:vf f in
         let b = Brute.count_by_size ~vars:vg g in
         Kvec.equal (Kvec.conv a b) (Kvec.conv b a)
         && Bigint.equal
              (Kvec.total (Kvec.conv a b))
              (Bigint.mul (Kvec.total a) (Kvec.total b)));
    qtest "extend composes" ~count:60 (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let kv = Brute.count_by_size ~vars f in
         Kvec.equal
           (Kvec.extend (Kvec.extend kv ~extra:2) ~extra:3)
           (Kvec.extend kv ~extra:5));
    qtest "complement involutive; disjoint_or = conv on complements" ~count:60
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let kv = Brute.count_by_size ~vars f in
         Kvec.equal kv (Kvec.complement (Kvec.complement kv)))
  ]

let brute_tests =
  [ t "unused universe variables double the count" (fun () ->
        Alcotest.check bigint "x1 over {1,2}" (bi 2)
          (Brute.count ~vars:[ 1; 2 ] (Formula.var 1)));
    t "constants" (fun () ->
        Alcotest.check bigint "true over 3" (bi 8)
          (Brute.count ~vars:[ 1; 2; 3 ] Formula.tru);
        Alcotest.check bigint "false" Bigint.zero
          (Brute.count ~vars:[ 1; 2; 3 ] Formula.fls))
  ]

let dpll_tests =
  [ t "agrees on example 2" (fun () ->
        Alcotest.check kvec "kvec"
          (Brute.count_by_size ~vars:example2_vars example2_formula)
          (Dpll.count_by_size_universe ~vars:example2_vars example2_formula));
    t "universe check" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Dpll.count_universe ~vars:[ 2 ] (Formula.var 1));
             false
           with Invalid_argument _ -> true));
    t "handles wide read-once formulas (beyond brute force)" (fun () ->
        (* (x1|x2) & (x3|x4) & ... 20 clauses, 40 vars: count = 3^20 *)
        let clauses =
          List.init 20 (fun i ->
              Formula.disj2 (Formula.var ((2 * i) + 1)) (Formula.var ((2 * i) + 2)))
        in
        let f = Formula.and_ clauses in
        Alcotest.check bigint "3^20"
          (Bigint.pow (bi 3) 20)
          (Dpll.count f));
    t "stats reports work" (fun () ->
        (* a single connected component, so the counter must branch *)
        let f = parse "x1 & x2 | x2 & x3" in
        let n, stats = Dpll.count_with_stats f in
        Alcotest.check bigint "count" (bi 3) n;
        Alcotest.(check bool) "branched" true (stats.Dpll.branches >= 1);
        (* a variable-disjoint disjunction decomposes without branching *)
        let g = parse "x1 & x2 | x3 & x4" in
        let n', stats' = Dpll.count_with_stats g in
        Alcotest.check bigint "count'" (bi 7) n';
        Alcotest.(check int) "no branches" 0 stats'.Dpll.branches);
    qtest "dpll = brute (count)" ~count:80 (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         Bigint.equal (Brute.count ~vars f) (Dpll.count_universe ~vars f));
    qtest "dpll = brute (stratified)" ~count:80 (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         Kvec.equal
           (Brute.count_by_size ~vars f)
           (Dpll.count_by_size_universe ~vars f));
    qtest "pdnf counting agrees" ~count:60 (arb_pdnf ~nvars:6 ~clauses:4)
      (fun d ->
         let f = Nf.pdnf_to_formula d in
         let vars = Vset.elements (Nf.pdnf_vars d) in
         QCheck.assume (vars <> []);
         Bigint.equal (Brute.count ~vars f) (Dpll.count_universe ~vars f));
    (* Over the universe {1}, x1 has one model, not two; and x1 is one
       player of x1 & x2, not two. *)
    t "duplicate universe variables are rejected" (fun () ->
        let raises name f =
          Alcotest.(check bool) name true
            (try
               ignore (f ());
               false
             with Invalid_argument _ -> true)
        in
        let x1 = Formula.var 1 and g = Circuit.cand [ Circuit.cvar 1; Circuit.cvar 2 ] in
        raises "Dpll.count_universe" (fun () -> Dpll.count_universe ~vars:[ 1; 1 ] x1);
        raises "Dpll.count_by_size_universe" (fun () ->
            Dpll.count_by_size_universe ~vars:[ 1; 1 ] x1);
        raises "Count.count" (fun () -> Count.count ~vars:[ 1; 1 ] (Circuit.cvar 1));
        raises "Count.differences" (fun () ->
            Count.differences ~weight:Count.counting ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.shap_direct" (fun () ->
            Circuit_shapley.shap_direct ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.shap_via_reduction" (fun () ->
            Circuit_shapley.shap_via_reduction ~vars:[ 1; 1; 2 ] g);
        (* Over {1, 2}, x1 is one player of x1 & x2 with Banzhaf value
           1/2; and I(1, 2) of x1 & x2 | x3 is 1/2.  A repeat skews both. *)
        raises "Power_indices.banzhaf" (fun () ->
            Power_indices.banzhaf ~vars:[ 1; 1; 2 ]
              (Formula.and_ [ x1; Formula.var 2 ]));
        raises "Prob.shap_score" (fun () ->
            Prob.shap_score ~weights:(fun _ -> Rat.zero)
              ~entity:(fun _ -> true) ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.interaction_naive" (fun () ->
            Circuit_shapley.interaction_naive ~vars:[ 1; 1; 2; 3 ]
              (Parser.formula_of_string_exn "x1 & x2 | x3")
              1 2);
        Alcotest.check bigint "a universe without repeats" Bigint.one
          (Dpll.count_universe ~vars:[ 1 ] x1))
  ]

let bipartite_tests =
  [ t "triangle-free example" (fun () ->
        (* edges (0,0),(0,1),(1,1) over 2+2 vars; count computed by hand
           via brute force below *)
        let inst = Bipartite.make ~a:2 ~b:2 [ (0, 0); (0, 1); (1, 1) ] in
        let f = Bipartite.to_formula inst in
        let vars = Bipartite.all_vars inst in
        Alcotest.check bigint "count"
          (Brute.count ~vars f)
          (Bipartite.count inst));
    t "no edges means no models" (fun () ->
        let inst = Bipartite.make ~a:3 ~b:2 [] in
        Alcotest.check bigint "0" Bigint.zero (Bipartite.count inst));
    t "complete bipartite" (fun () ->
        (* K_{1,1}: F = X∧Y, count 1 over 2 vars *)
        let inst = Bipartite.make ~a:1 ~b:1 [ (0, 0) ] in
        Alcotest.check bigint "1" Bigint.one (Bipartite.count inst));
    t "edge out of range rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Bipartite.make ~a:1 ~b:1 [ (1, 0) ]);
             false
           with Invalid_argument _ -> true));
    t "isolated vertices count as free variables" (fun () ->
        (* a=2,b=1, edge (0,0): F = X0∧Y0 over 3 vars → count 2 *)
        let inst = Bipartite.make ~a:2 ~b:1 [ (0, 0) ] in
        Alcotest.check bigint "2" (bi 2) (Bipartite.count inst));
    qtest "bipartite counter = brute force" ~count:40
      (QCheck.make
         QCheck.Gen.(
           let* a = int_range 1 4 in
           let* b = int_range 1 4 in
           let* seed = int_range 0 10000 in
           return (a, b, seed)))
      (fun (a, b, seed) ->
         let inst = Bipartite.random ~a ~b ~density:0.4 ~seed in
         let f = Bipartite.to_formula inst in
         let vars = Bipartite.all_vars inst in
         Bigint.equal (Brute.count ~vars f) (Bipartite.count inst))
    ;
    qtest "bipartite stratified = brute force" ~count:25
      (QCheck.make
         QCheck.Gen.(
           let* a = int_range 1 4 in
           let* b = int_range 1 4 in
           let* seed = int_range 0 10000 in
           return (a, b, seed)))
      (fun (a, b, seed) ->
         let inst = Bipartite.random ~a ~b ~density:0.5 ~seed in
         let f = Bipartite.to_formula inst in
         let vars = Bipartite.all_vars inst in
         Kvec.equal (Brute.count_by_size ~vars f) (Bipartite.count_by_size inst))
  ]

let karp_luby_tests =
  [ t "exact on a single clause" (fun () ->
        (* F = x1 & x2 over 4 vars: #F = 4; single clause means every
           sample hits (its clause is always first), so the estimate is
           exactly U = 2^(n-2). *)
        let d = [ Vset.of_list [ 1; 2 ] ] in
        let est =
          Karp_luby.count_samples ~seed:1 ~samples:50 ~vars:[ 1; 2; 3; 4 ] d
        in
        Alcotest.(check (float 0.001)) "exact" 4.0 est.Karp_luby.value);
    t "sample bound shape" (fun () ->
        let a = Karp_luby.sample_bound ~clauses:5 ~eps:0.1 ~delta:0.05 in
        let b = Karp_luby.sample_bound ~clauses:10 ~eps:0.1 ~delta:0.05 in
        Alcotest.(check bool) "linear in m" true (b >= 2 * a - 1);
        Alcotest.(check bool) "rejects eps=0" true
          (try
             ignore (Karp_luby.sample_bound ~clauses:1 ~eps:0.0 ~delta:0.5);
             false
           with Invalid_argument _ -> true));
    t "constant DNF rejected" (fun () ->
        Alcotest.(check bool) "empty" true
          (try
             ignore (Karp_luby.count_samples ~samples:10 ~vars:[ 1 ] []);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "true clause" true
          (try
             ignore
               (Karp_luby.count_samples ~samples:10 ~vars:[ 1 ]
                  [ Vset.empty ]);
             false
           with Invalid_argument _ -> true));
    qtest "(eps, delta) guarantee holds empirically" ~count:15
      (arb_pdnf ~nvars:8 ~clauses:5)
      (fun d ->
         let d = Nf.pdnf_minimize d in
         QCheck.assume (d <> [] && not (List.exists Vset.is_empty d));
         let vars = List.init 10 succ in
         let exact =
           Bigint.to_float (Brute.count ~vars (Nf.pdnf_to_formula d))
         in
         let est = Karp_luby.count ~seed:7 ~eps:0.2 ~delta:0.05 ~vars d in
         Float.abs (est.Karp_luby.value -. exact) <= 0.2 *. exact);
    qtest "fixed-sample estimates converge" ~count:10
      (QCheck.make QCheck.Gen.(int_range 0 9999))
      (fun seed ->
         let inst = Bipartite.random ~a:4 ~b:4 ~density:0.4 ~seed in
         QCheck.assume (inst.Bipartite.edges <> []);
         let d = Bipartite.to_pdnf inst in
         let vars = Bipartite.all_vars inst in
         let exact = Bigint.to_float (Bipartite.count inst) in
         let est = Karp_luby.count_samples ~seed ~samples:20000 ~vars d in
         Float.abs (est.Karp_luby.value -. exact) <= 0.15 *. exact +. 1.0)
  ]

let suite =
  kvec_tests @ brute_tests @ dpll_tests @ bipartite_tests @ karp_luby_tests

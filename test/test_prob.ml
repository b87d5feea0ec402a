(** Tests for probability computation, SHAP scores, the PQE reduction
    route, Banzhaf values, and Monte-Carlo sampling. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let r = Rat.of_ints
let parse = Parser.formula_of_string_exn
let half = Prob.uniform_half

(* Reference probability by brute force. *)
let brute_probability ~weights f =
  let vars = Array.of_list (Vset.elements (Formula.vars f)) in
  let n = Array.length vars in
  let total = ref Rat.zero in
  for mask = 0 to (1 lsl n) - 1 do
    let s = ref Vset.empty in
    let w = ref Rat.one in
    Array.iteri
      (fun i v ->
         if mask land (1 lsl i) <> 0 then begin
           s := Vset.add v !s;
           w := Rat.mul !w (weights v)
         end
         else w := Rat.mul !w (Rat.sub Rat.one (weights v)))
      vars;
    if Formula.eval_set !s f then total := Rat.add !total !w
  done;
  !total

let probability_tests =
  [ t "uniform half = count / 2^n" (fun () ->
        let c = Compile.compile example2_formula in
        Alcotest.check rat "3/8" (r 3 8) (Prob.probability ~weights:half c));
    t "biased weights" (fun () ->
        let f = parse "x1 & x2" in
        let weights v = if v = 1 then r 1 3 else r 1 4 in
        Alcotest.check rat "1/12" (r 1 12)
          (Prob.probability ~weights (Compile.compile f));
        (* simplification eliminates variables on some paths, whose
           weights integrate out: P = p1 + (1-p1) p2 *)
        let weights v = if v = 1 then r 1 3 else r 1 5 in
        Alcotest.check rat "7/15" (r 7 15)
          (Prob.probability ~weights (Compile.compile (parse "x1 | !x1 & x2"))));
    t "probability of constants" (fun () ->
        Alcotest.check rat "true" Rat.one
          (Prob.probability ~weights:half Circuit.ctrue);
        Alcotest.check rat "false" Rat.zero
          (Prob.probability ~weights:half Circuit.cfalse));
    qtest "circuit probability = brute force" ~count:60
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let weights v = r 1 (v + 2) in
         Rat.equal
           (brute_probability ~weights f)
           (Prob.probability ~weights (Compile.compile f)));
    qtest "safe-plan probability = compiled probability" ~count:20
      (QCheck.make QCheck.Gen.(int_range 0 9999))
      (fun seed ->
         let st = Random.State.make [| seed |] in
         let db = Database.create () in
         Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
         Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
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
         let weights v = r 1 (v + 1) in
         Rat.equal
           (Pqe.probability db q ~weights)
           (Prob.probability ~weights
              (Compile.compile (Lineage.lineage_formula db q))))
  ]

let shap_score_tests =
  [ t "paper's fact: Shapley = SHAP at e=1, p=0" (fun () ->
        let c = Compile.compile example2_formula in
        check_shap "equal"
          (Naive.shap_subsets ~vars:example2_vars example2_formula)
          (Prob.shap_score
             ~weights:(fun _ -> Rat.zero)
             ~entity:(fun _ -> true)
             ~vars:example2_vars c));
    t "paper's warning: Shapley <> SHAP at p=1/2" (fun () ->
        let c = Compile.compile example2_formula in
        let score =
          Prob.shap_score ~weights:half ~entity:(fun _ -> true)
            ~vars:example2_vars c
        in
        (* concrete values pinned: 5/12, 7/24, -1/12 *)
        check_shap "p=1/2 values"
          [ (1, r 5 12); (2, r 7 24); (3, r (-1) 12) ]
          score;
        Alcotest.(check bool) "differs from Shapley" false
          (Rat.equal (List.assoc 1 score) (r 5 6)));
    t "SHAP scores sum to F(e) - E[F]" (fun () ->
        (* the efficiency property of the SHAP score *)
        let c = Compile.compile example2_formula in
        let entity v = v <> 3 in
        let weights v = r 1 (v + 1) in
        let score =
          Prob.shap_score ~weights ~entity ~vars:example2_vars c
        in
        let sum =
          List.fold_left (fun a (_, v) -> Rat.add a v) Rat.zero score
        in
        let f_e =
          if Formula.eval_set (Vset.of_list [ 1; 2 ]) example2_formula then
            Rat.one
          else Rat.zero
        in
        let expectation = Prob.probability ~weights c in
        Alcotest.check rat "efficiency" (Rat.sub f_e expectation) sum);
    qtest "Shapley = SHAP(e=1, p=0) on random functions" ~count:40
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let c = Compile.compile f in
         let a = Naive.shap_subsets ~vars f in
         let b =
           Prob.shap_score
             ~weights:(fun _ -> Rat.zero)
             ~entity:(fun _ -> true)
             ~vars c
         in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    qtest "expectation_poly coefficient 0 is the plain probability" ~count:40
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         QCheck.assume (not (Vset.is_empty (Formula.vars f)));
         let weights v = r 1 (v + 2) in
         let c = Compile.compile f in
         let h = Prob.expectation_poly ~weights ~entity:(fun _ -> true) c in
         Rat.equal (Poly.coeff h 0) (Prob.probability ~weights c))
  ]

let pqe_route_tests =
  [ t "kcounts via probability interpolation" (fun () ->
        Alcotest.check kvec "example 2"
          (Brute.count_by_size ~vars:example2_vars example2_formula)
          (Pipeline.kcounts_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
             ~vars:example2_vars example2_formula));
    qtest "Shap via PQE (prior work) = Shap via counting (this paper)"
      ~count:30 (arb_formula ~nvars:4 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let a =
           Pipeline.shap_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
             ~vars f
         in
         let b =
           Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
             ~vars f
         in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    t "db-level Shapley via PQE matches the dichotomy solver" (fun () ->
        let db, q = random_q0_db ~a:2 ~b:2 ~density:0.7 ~seed:5 in
        let via_pqe = Pqe.shapley_via_pqe db q in
        let direct, _ = Dichotomy.shapley db q in
        check_shap "equal" direct via_pqe)
  ]

(* [i] is a dummy of [f] over [vars]: flipping it never changes [f]. *)
let is_dummy ~vars f i =
  let vars = Array.of_list vars in
  List.for_all
    (fun mask ->
       let s = ref Vset.empty in
       Array.iteri
         (fun bit v -> if mask land (1 lsl bit) <> 0 then s := Vset.add v !s)
         vars;
       Formula.eval_set (Vset.add i !s) f
       = Formula.eval_set (Vset.remove i !s) f)
    (List.init (1 lsl Array.length vars) Fun.id)

let banzhaf_tests =
  [ t "example 2 Banzhaf values" (fun () ->
        (* diffs: x1: #(x2|!x3) - 0 = 3; x2: #x1 - #(x1&!x3) = 2-1 = 1;
           x3: #(x1&x2) - #x1 = 1-2 = -1; divided by 2^2 *)
        check_shap "banzhaf"
          [ (1, r 3 4); (2, r 1 4); (3, r (-1) 4) ]
          (Power_indices.banzhaf ~vars:example2_vars example2_formula));
    t "banzhaf of a dictator is 1" (fun () ->
        check_shap "dictator"
          [ (1, Rat.one); (2, Rat.zero) ]
          (Power_indices.banzhaf ~vars:[ 1; 2 ] (Formula.var 1)));
    qtest "circuit = brute" ~count:40 (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let a = Power_indices.banzhaf ~vars f in
         let b = Power_indices.banzhaf_circuit ~vars (Compile.compile f) in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    qtest "count-oracle route agrees" ~count:30 (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let a = Power_indices.banzhaf ~vars f in
         let b =
           Power_indices.banzhaf_via_count_oracle
             ~count:(fun ~vars f -> Dpll.count_universe ~vars f)
             ~vars f
         in
         List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b);
    (* Banzhaf and Shapley weigh the same marginal contributions
       differently, so on non-monotone formulas a zero of one need not
       be a zero of the other: here x2's contributions cancel under
       Banzhaf's uniform weights (brute, DPLL and circuit agree) but not
       under Shapley's, −1·1/12 + 1·1/4 = 1/6. *)
    t "zero Banzhaf value, nonzero Shapley value" (fun () ->
        let f = parse "!(x2 | x3) | !x4 | x2 & x1" in
        let vars = [ 1; 2; 3; 4 ] in
        let banzhaf =
          [ (1, r 1 4); (2, Rat.zero); (3, r (-1) 4); (4, r (-1) 2) ]
        in
        check_shap "banzhaf (brute)" banzhaf (Power_indices.banzhaf ~vars f);
        check_shap "banzhaf (circuit)" banzhaf
          (Power_indices.banzhaf_circuit ~vars (Compile.compile f));
        check_shap "banzhaf (dpll)" banzhaf
          (Power_indices.banzhaf_via_count_oracle
             ~count:(fun ~vars f -> Dpll.count_universe ~vars f)
             ~vars f);
        let shapley =
          [ (1, r 1 3); (2, r 1 6); (3, r (-1) 6); (4, r (-1) 3) ]
        in
        check_shap "shapley (subsets)" shapley (Naive.shap_subsets ~vars f);
        check_shap "shapley (permutations)" shapley
          (Naive.shap_permutations ~vars f);
        check_shap "shapley (circuit)" shapley
          (Circuit_shapley.shap_direct ~vars (Compile.compile f));
        check_shap "shapley (reduction)" shapley
          (Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
             ~vars f));
    qtest "a variable f does not depend on gets 0 from both" ~count:40
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         (* x5 never occurs; an occurring variable may not matter either *)
         let vars = Vset.elements (Formula.vars f) @ [ 5 ] in
         let b = Power_indices.banzhaf ~vars f in
         let s = Naive.shap_subsets ~vars f in
         List.for_all2
           (fun (i, x) (j, y) ->
              i = j
              && ((not (is_dummy ~vars f i))
                  || (Rat.is_zero x && Rat.is_zero y)))
           b s);
    qtest "positive formulas: both >= 0 and zero together" ~count:40
      (arb_pdnf ~nvars:4 ~clauses:4)
      (fun d ->
         let f = Nf.pdnf_to_formula d in
         let vars = [ 1; 2; 3; 4 ] in
         let b = Power_indices.banzhaf ~vars f in
         let s = Naive.shap_subsets ~vars f in
         List.for_all2
           (fun (i, x) (j, y) ->
              i = j
              && Rat.sign x >= 0 && Rat.sign y >= 0
              && Rat.is_zero x = Rat.is_zero y)
           b s)
  ]

let sampling_tests =
  [ t "estimates converge on example 2" (fun () ->
        (* no eps: the whole fixed budget is walked, no early stop *)
        let r =
          Sampling.shap_estimate ~seed:7 ~max_samples:30000
            ~vars:example2_vars example2_formula
        in
        Alcotest.(check int) "whole budget walked" 30000 r.Sampling.samples_used;
        Alcotest.(check bool) "not reported as converged" false
          r.Sampling.converged;
        let expected = [ (1, 5.0 /. 6.0); (2, 1.0 /. 3.0); (3, -1.0 /. 6.0) ] in
        List.iter
          (fun e ->
             let truth = List.assoc e.Sampling.variable expected in
             Alcotest.(check bool)
               (Printf.sprintf "x%d within interval" e.Sampling.variable)
               true
               (Float.abs (e.Sampling.value -. truth) <= e.Sampling.half_width))
          r.Sampling.estimates);
    t "samples_for bound shape" (fun () ->
        let m1 = Sampling.samples_for ~eps:0.1 ~delta:0.05 in
        let m2 = Sampling.samples_for ~eps:0.05 ~delta:0.05 in
        Alcotest.(check bool) "quadratic in 1/eps" true (m2 >= 3 * m1);
        Alcotest.(check bool) "raises on bad input" true
          (try
             ignore (Sampling.samples_for ~eps:0.0 ~delta:0.5);
             false
           with Invalid_argument _ -> true));
    t "rejects nonsense" (fun () ->
        let raises what k =
          Alcotest.(check bool) what true
            (try
               ignore (k () : Sampling.report);
               false
             with Invalid_argument _ -> true)
        in
        raises "universe misses a variable" (fun () ->
            Sampling.shap_estimate ~vars:[ 1; 2 ] example2_formula);
        raises "eps=0" (fun () ->
            Sampling.shap_estimate ~eps:0.0 ~vars:example2_vars
              example2_formula);
        raises "deadline=0" (fun () ->
            Sampling.shap_estimate ~deadline:0.0 ~vars:example2_vars
              example2_formula));
    t "deterministic under fixed seed" (fun () ->
        List.iter
          (fun estimator ->
             let run seed =
               Sampling.shap_estimate ~estimator ~seed ~max_samples:100
                 ~vars:example2_vars example2_formula
             in
             let name = Sampling.estimator_name estimator in
             let a = run 3 and b = run 3 and c = run 4 in
             let values r =
               List.map (fun e -> e.Sampling.value) r.Sampling.estimates
             and widths r =
               List.map (fun e -> e.Sampling.half_width) r.Sampling.estimates
             in
             Alcotest.(check (list (float 0.0))) (name ^ ": same values")
               (values a) (values b);
             Alcotest.(check (list (float 0.0))) (name ^ ": same half-widths")
               (widths a) (widths b);
             Alcotest.(check bool) (name ^ ": another seed, other values")
               true
               (values a <> values c))
          Sampling.[ Truncated; Antithetic ])
  ]

let suite =
  probability_tests @ shap_score_tests @ pqe_route_tests @ banzhaf_tests
  @ sampling_tests

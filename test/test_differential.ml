(** Differential properties: independently implemented algorithms must
    agree on random inputs.

    Counters (brute enumeration, DPLL with component decomposition, the
    bottom-up d-D circuit pass) are compared on formulas of up to 10
    variables; the Theorem 3.1 reduction pipeline is compared against the
    exponential Eq. (2) reference on smaller universes (the OR-substituted
    oracle instances blow up as n·l).

    Determinism: every QCheck test gets its own fixed-seed
    [Random.State], so a reported failure reproduces by rerunning the
    suite.  Iteration counts are deliberately low in the default
    [dune runtest] (tier-1) and raised by the [@slow] alias through the
    [SHAPMC_QCHECK_COUNT] environment variable. *)

open Helpers

let iterations default =
  match Sys.getenv_opt "SHAPMC_QCHECK_COUNT" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

(* Like [Helpers.qtest], but deterministically seeded and env-scaled. *)
let dtest ~seed ~count name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 2024; seed |])
    (QCheck.Test.make ~count:(iterations count) ~name arb prop)

let universe n = List.init n succ

(* ------------------------------------------------------------------ *)
(* Model counters *)

let vars10 = universe 10
let arb10 = arb_formula ~nvars:10 ~depth:4

let counter_tests =
  [ dtest ~seed:1 ~count:40 "brute = dpll = circuit (#F, 10-var universe)"
      arb10 (fun f ->
        let b = Brute.count ~vars:vars10 f in
        Bigint.equal b (Dpll.count_universe ~vars:vars10 f)
        && Bigint.equal b (Count.count ~vars:vars10 (Compile.compile f)));
    dtest ~seed:2 ~count:25 "brute = dpll = circuit (#_* F, 10-var universe)"
      arb10 (fun f ->
        let b = Brute.count_by_size ~vars:vars10 f in
        Kvec.equal b (Dpll.count_by_size_universe ~vars:vars10 f)
        && Kvec.equal b (Count.count_by_size ~vars:vars10 (Compile.compile f)));
    dtest ~seed:3 ~count:25
      "count_by_size_circuit total = brute (over the circuit's universe)"
      arb10 (fun f ->
        (* The compiled circuit may drop variables; smooth its stratified
           vector up to the full universe before comparing. *)
        let c = Compile.compile f in
        let kv = Count.count_by_size_circuit c in
        let smoothed =
          Kvec.extend kv ~extra:(10 - Kvec.universe_size kv)
        in
        Kvec.equal smoothed (Brute.count_by_size ~vars:vars10 f));
    dtest ~seed:4 ~count:25 "obdd = dpll (#F, 10-var universe)" arb10
      (fun f ->
        let m = Obdd.create_manager ~order:vars10 in
        Bigint.equal
          (Obdd.count m ~vars:vars10 (Obdd.of_formula m f))
          (Dpll.count_universe ~vars:vars10 f)) ]

(* ------------------------------------------------------------------ *)
(* Counting and compilation are two algebras over one search, so they
   take the same branches and hit the memo equally often. *)

let search_tests =
  [ dtest ~seed:13 ~count:40 "dpll and compile report equal search stats"
      arb10 (fun f ->
        snd (Dpll.count_with_stats f) = snd (Compile.compile_with_stats f));
    Alcotest.test_case "compile: Not g is the NOT gate over g's circuit" `Quick
      (fun () ->
        List.iter
          (fun s ->
            let g = Parser.formula_of_string_exn s in
            let c, st = Compile.compile_with_stats g in
            let c', st' = Compile.compile_with_stats (Formula.not_ g) in
            Alcotest.(check bool) s true (c' == Circuit.cnot c);
            Alcotest.(check int) s st.Dpll.branches st'.Dpll.branches)
          [ "x1 & (x2 | !x3)"; "x1 & x2 | x2 & x3 | x1 & x3";
            "x1 & x2 | x3 & x4 | x5 & x6" ]) ]

(* ------------------------------------------------------------------ *)
(* Shapley pipelines: the Theorem 3.1 reduction vs the Eq. (2) reference.
   The dpll oracle handles 6-variable universes (oracle instances reach
   n·(n+1) = 42 fresh variables); the brute oracle enumerates 2^(n·l)
   assignments, so it stays at n = 3. *)

let shap_agree ~oracle ~vars f =
  let reference = Naive.shap_subsets ~vars f in
  let via = Pipeline.shap_via_count_oracle ~oracle ~vars f in
  List.length reference = List.length via
  && List.for_all2
       (fun (i, x) (j, y) -> i = j && Rat.equal x y)
       (List.sort compare reference)
       (List.sort compare via)

let shap_tests =
  [ dtest ~seed:5 ~count:15
      "shap: Eq.(2) = reduction over dpll oracle (6-var universe)"
      (arb_formula ~nvars:6 ~depth:4)
      (shap_agree ~oracle:Pipeline.dpll_count_oracle ~vars:(universe 6));
    dtest ~seed:6 ~count:10
      "shap: Eq.(2) = reduction over brute oracle (3-var universe)"
      (arb_formula ~nvars:3 ~depth:3)
      (shap_agree ~oracle:Pipeline.brute_count_oracle ~vars:(universe 3));
    dtest ~seed:7 ~count:10
      "shap: dpll-reduction = pqe route (5-var universe)"
      (arb_formula ~nvars:5 ~depth:4)
      (fun f ->
        let vars = universe 5 in
        let a =
          Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
            ~vars f
        in
        let b =
          Pipeline.shap_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
            ~vars f
        in
        List.for_all2
          (fun (i, x) (j, y) -> i = j && Rat.equal x y)
          (List.sort compare a) (List.sort compare b)) ]

(* ------------------------------------------------------------------ *)
(* The reverse reduction: # via a Shapley oracle (Lemma 3.4). *)

let reverse_tests =
  [ dtest ~seed:8 ~count:10 "count via Shap oracle = brute (3-var universe)"
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
        Bigint.equal
          (Pipeline.count_via_shap_oracle
             ~oracle:Pipeline.shap_oracle_of_subsets ~vars:(universe 3) f)
          (Brute.count ~vars:(universe 3) f)) ]

(* ------------------------------------------------------------------ *)
(* Theorem 4.1 and its sibling scores: the forward-backward pass against
   conditioning *)

(* The algorithms the backward pass replaced, kept as oracles: condition
   the circuit on each variable, recount both restrictions, and sum
   Eq. (2) term by term in rationals. *)
let conditioned_differences ~vars g =
  let sorted = List.sort compare vars in
  List.map
    (fun i ->
      let others = List.filter (fun v -> v <> i) sorted in
      let kv b = Count.count_by_size ~vars:others (Condition.restrict i b g) in
      (i, Kvec.sub (kv true) (kv false)))
    sorted

let shap_by_conditioning ~vars g =
  let n = List.length vars in
  List.map
    (fun (i, d) ->
      let value = ref Rat.zero in
      for k = 0 to n - 1 do
        value :=
          Rat.add !value
            (Rat.mul_bigint (Combi.shapley_coeff ~n k) (Kvec.get d k))
      done;
      (i, !value))
    (conditioned_differences ~vars g)

(* Banzhaf: two conditionings and two plain counts per variable. *)
let banzhaf_by_conditioning ~vars g =
  let sorted = List.sort compare vars in
  let n = List.length sorted in
  List.map
    (fun i ->
      let others = List.filter (fun v -> v <> i) sorted in
      let c b = Count.count ~vars:others (Condition.restrict i b g) in
      (i, Rat.make (Bigint.sub (c true) (c false)) (Combi.pow2 (n - 1))))
    sorted

(* (1 + t)^m, the polynomial of the constant-1 function over m free
   variables (every conditional expectation is 1). *)
let ones_poly m =
  let rec go acc k =
    if k = 0 then acc
    else go (Poly.mul acc (Poly.of_coeffs [ Rat.one; Rat.one ])) (k - 1)
  in
  go Poly.one m

(* SHAP's own stratified pass: the polynomial
   [H_G(t) = Σ_k (Σ_{S ⊆ vars G, |S| = k} E[G | X_S = e_S]) · t^k], gate
   by gate over [Poly]/[Rat]. *)
let expectation_poly ~weights ~entity root =
  let memo = Hashtbl.create 64 in
  let scope_size (g : Circuit.node) = Vset.cardinal g.vars in
  let smooth child_poly child_scope target_scope =
    Poly.mul child_poly (ones_poly (target_scope - child_scope))
  in
  let rec go (g : Circuit.node) =
    match Hashtbl.find_opt memo g.id with
    | Some h -> h
    | None ->
      let h =
        match g.gate with
        | Circuit.Ctrue -> Poly.one
        | Circuit.Cfalse -> Poly.zero
        | Circuit.Cvar v ->
          Poly.of_coeffs [ weights v; (if entity v then Rat.one else Rat.zero) ]
        | Circuit.Cnot x -> Poly.sub (ones_poly (scope_size g)) (go x)
        | Circuit.Cand gs ->
          List.fold_left (fun acc x -> Poly.mul acc (go x)) Poly.one gs
        | Circuit.Cor (Circuit.Deterministic, gs) ->
          List.fold_left
            (fun acc x ->
              Poly.add acc (smooth (go x) (scope_size x) (scope_size g)))
            Poly.zero gs
        | Circuit.Cor (Circuit.Disjoint, gs) ->
          let non =
            List.fold_left
              (fun acc x ->
                Poly.mul acc (Poly.sub (ones_poly (scope_size x)) (go x)))
              Poly.one gs
          in
          Poly.sub (ones_poly (scope_size g)) non
      in
      Hashtbl.replace memo g.id h;
      h
  in
  go root

(* SHAP: two conditionings per variable, each followed by
   [expectation_poly]. *)
let shap_score_by_conditioning ~weights ~entity ~vars root =
  let sorted = List.sort compare vars in
  let n = List.length sorted in
  List.map
    (fun i ->
      let poly_of b =
        let c = Condition.restrict i b root in
        Poly.mul
          (expectation_poly ~weights ~entity c)
          (ones_poly (n - 1 - Vset.cardinal (Circuit.vars c)))
      in
      let h1 = poly_of true and h0 = poly_of false in
      let h_ei = if entity i then h1 else h0 in
      let p_i = weights i in
      (* without i in S, X_i is random: mix the two restrictions *)
      let h_mixed =
        Poly.add (Poly.scale p_i h1) (Poly.scale (Rat.sub Rat.one p_i) h0)
      in
      let value = ref Rat.zero in
      for k = 0 to n - 1 do
        let diff = Rat.sub (Poly.coeff h_ei k) (Poly.coeff h_mixed k) in
        value := Rat.add !value (Rat.mul (Combi.shapley_coeff ~n k) diff)
      done;
      (i, !value))
    sorted

(* The interaction index: stratified counts of the four conditionings of
   [(X_i, X_j)]. *)
let interaction_by_conditioning ~vars g i j =
  let sorted = List.sort compare vars in
  let n = List.length sorted in
  let others = List.filter (fun v -> v <> i && v <> j) sorted in
  let kv bi bj =
    Count.count_by_size ~vars:others
      (Condition.restrict j bj (Condition.restrict i bi g))
  in
  let k11 = kv true true and k10 = kv true false in
  let k01 = kv false true and k00 = kv false false in
  let acc = ref Rat.zero in
  for k = 0 to n - 2 do
    let delta =
      Bigint.add
        (Bigint.sub (Kvec.get k11 k) (Kvec.get k10 k))
        (Bigint.sub (Kvec.get k00 k) (Kvec.get k01 k))
    in
    let weight =
      Rat.make
        (Bigint.mul (Combi.factorial k) (Combi.factorial (n - k - 2)))
        (Combi.factorial (n - 1))
    in
    acc := Rat.add !acc (Rat.mul_bigint weight delta)
  done;
  !acc

let same_values a b =
  List.length a = List.length b
  && List.for_all2 (fun (i, x) (j, y) -> i = j && Rat.equal x y) a b

(* A product distribution and an entity fixed by the variable: zeros,
   ones and mixed denominators among the probabilities, zeros among the
   entity's values. *)
let shap_weights v =
  match v mod 5 with
  | 0 -> Rat.zero
  | 1 -> Rat.of_ints 1 3
  | 2 -> Rat.one
  | 3 -> Rat.of_ints 3 4
  | _ -> Rat.of_ints 2 5

let shap_entity v = v mod 3 <> 1

(* Difference vectors equal conditioning's; Shapley values equal
   conditioning's and the exponential Eq. (2) reference on [f] (default:
   the circuit unfolded); Banzhaf values, SHAP scores and the interaction
   of the least variable with a middle one equal conditioning's. *)
let backward_agrees ?f ~vars g =
  let f = match f with Some f -> f | None -> Circuit.to_formula g in
  let direct = Circuit_shapley.shap_direct ~vars g in
  let sorted = List.sort compare vars in
  List.for_all2
    (fun (i, a) (j, b) -> i = j && Kvec.equal a b)
    (Count.differences ~weight:Count.counting ~vars g)
    (conditioned_differences ~vars g)
  && same_values direct (shap_by_conditioning ~vars g)
  && same_values direct (Naive.shap_subsets ~vars f)
  && same_values
       (Power_indices.banzhaf_circuit ~vars g)
       (banzhaf_by_conditioning ~vars g)
  && same_values
       (Prob.shap_score ~weights:shap_weights ~entity:shap_entity ~vars g)
       (shap_score_by_conditioning ~weights:shap_weights ~entity:shap_entity
          ~vars g)
  &&
  match sorted with
  | i :: _ :: _ ->
    let j = List.nth sorted (List.length sorted / 2) in
    Rat.equal
      (Circuit_shapley.interaction ~vars g i j)
      (interaction_by_conditioning ~vars g i j)
  | _ -> true

(* Compiled formulas on 1..4 and 5..8, combined under Not, decomposable
   And and disjoint Or gates, over a universe of up to two variables the
   circuit does not mention. *)
let arb_compiled =
  let open QCheck.Gen in
  let f = gen_formula ~nvars:4 ~depth:3 in
  QCheck.make
    ~print:(fun (f1, f2, shape, extra) ->
      Printf.sprintf "shape %d, extra %d: %s | %s" shape extra
        (Formula.to_string f1) (Formula.to_string f2))
    (quad f f (int_range 0 4) (int_range 0 2))

let compiled_circuit (f1, f2, shape, _) =
  let a = Compile.compile f1 in
  let b = Compile.compile (Formula.rename (fun v -> v + 4) f2) in
  let open Circuit in
  match shape with
  | 0 -> a
  | 1 -> cnot a
  | 2 -> cand [ cnot a; b ]
  | 3 -> cor_disj [ a; cnot b ]
  | _ -> cnot (cor_disj [ cnot a; b ])

(* Random CNFs over 1..6 with one extra universe variable. *)
let arb_cnf =
  let open QCheck.Gen in
  let lit = pair (int_range 1 6) bool in
  (* one literal per variable: Nf.clause rejects x ∨ ¬x *)
  let clause =
    map
      (List.sort_uniq (fun (a, _) (b, _) -> compare a b))
      (list_size (int_range 1 3) lit)
  in
  QCheck.make
    ~print:(fun cls ->
      String.concat " & "
        (List.map
           (fun c ->
             "(" ^ String.concat " | "
               (List.map
                  (fun (v, pos) -> (if pos then "" else "!") ^ string_of_int v)
                  c) ^ ")")
           cls))
    (list_size (int_range 0 5) clause)

let cnf_of cls =
  List.map
    (fun c ->
      let pos, neg = List.partition snd c in
      Nf.clause ~pos:(List.map fst pos) ~neg:(List.map fst neg))
    cls

(* The Lemma 3.4 instances: [F^(l,i)] built from a compiled formula. *)
let arb_lemma34 =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (f, l, keep) ->
      Printf.sprintf "l=%d keep=%d %s" l keep (Formula.to_string f))
    (triple (gen_formula ~nvars:3 ~depth:3) (int_range 1 3) (int_range 1 3))

(* Random hierarchical databases: R ⊆ 1..3 and S ⊆ 1..3 × 1..2 are
   endogenous, T ⊆ 1..3 exogenous; facts outside the lineage stay in
   the universe. *)
let hierarchical_queries =
  [| "R(x), S(x,y)"; "R(x), S(x,y), T(x)"; "S(x,y), T(x)"; "R(x)" |]

let arb_hierarchical =
  let open QCheck.Gen in
  let sub l = map (List.sort_uniq compare) (list_size (int_range 0 4) l) in
  QCheck.make
    ~print:(fun (q, r, s, t) ->
      Printf.sprintf "%s R=%s S=%s T=%s" hierarchical_queries.(q)
        (String.concat "," (List.map string_of_int r))
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d.%d" a b) s))
        (String.concat "," (List.map string_of_int t)))
    (quad
       (int_range 0 (Array.length hierarchical_queries - 1))
       (sub (int_range 1 3))
       (sub (pair (int_range 1 3) (int_range 1 2)))
       (sub (int_range 1 3)))

let hierarchical_instance (q, r, s, t) =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  Database.declare db "T" ~kind:Database.Exogenous ~arity:1;
  List.iter (fun v -> ignore (Database.insert db "R" [| Value.int v |])) r;
  List.iter
    (fun (a, b) -> ignore (Database.insert db "S" [| Value.int a; Value.int b |]))
    s;
  List.iter (fun v -> ignore (Database.insert db "T" [| Value.int v |])) t;
  (db, Db_parser.parse_query hierarchical_queries.(q))

let backward_tests =
  [ dtest ~seed:9 ~count:40
      "backward pass = conditioning = naive (compiled, Not, padded universe)"
      arb_compiled
      (fun ((_, _, _, extra) as inst) ->
        backward_agrees ~vars:(universe (8 + extra)) (compiled_circuit inst));
    dtest ~seed:10 ~count:30 "backward pass = conditioning = naive (CNF compiler)"
      arb_cnf
      (fun cls ->
        let cnf = cnf_of cls in
        backward_agrees ~f:(Nf.cnf_to_formula cnf) ~vars:(universe 7)
          (Compile_cnf.compile cnf));
    dtest ~seed:11 ~count:25
      "backward pass = conditioning = naive (Lemma 3.4 OR-substitution)"
      arb_lemma34
      (fun (f, l, keep) ->
        let g, _, blocks =
          Or_subst.uniform_or_except ~universe:(Vset.of_list (universe 3)) ~l
            ~keep (Compile.compile f)
        in
        backward_agrees ~vars:(List.concat_map snd blocks) g);
    dtest ~seed:12 ~count:30
      "backward pass = conditioning = naive (safe-plan lineage)"
      arb_hierarchical
      (fun inst ->
        let db, q = hierarchical_instance inst in
        backward_agrees ~f:(Lineage.lineage_formula db q)
          ~vars:(Vset.elements (Database.lineage_vars db))
          (Safe_plan.lineage_circuit db q)) ]

let backward_edge_cases =
  let r a b = Rat.make (Bigint.of_int a) (Bigint.of_int b) in
  let case name ~vars g expected =
    Alcotest.test_case name `Quick (fun () ->
        check_shap "shap_direct" expected (Circuit_shapley.shap_direct ~vars g);
        check_shap "conditioning" expected (shap_by_conditioning ~vars g);
        List.iter
          (fun (_, d) ->
            Alcotest.(check int) "difference vector over n-1 variables"
              (List.length vars - 1) (Kvec.universe_size d))
          (Count.differences ~weight:Count.counting ~vars g))
  in
  let open Circuit in
  [ case "backward: true over three unmentioned variables" ~vars:[ 1; 2; 3 ]
      ctrue [ (1, Rat.zero); (2, Rat.zero); (3, Rat.zero) ];
    case "backward: false over three unmentioned variables" ~vars:[ 1; 2; 3 ]
      cfalse [ (1, Rat.zero); (2, Rat.zero); (3, Rat.zero) ];
    case "backward: empty universe" ~vars:[] ctrue [];
    case "backward: n = 1, X" ~vars:[ 1 ] (cvar 1) [ (1, Rat.one) ];
    case "backward: n = 1, not X" ~vars:[ 1 ] (cnot (cvar 1))
      [ (1, Rat.minus_one) ];
    case "backward: n = 1, true" ~vars:[ 1 ] ctrue [ (1, Rat.zero) ];
    case "backward: X over {X, Y}" ~vars:[ 2; 1 ] (cvar 1)
      [ (1, Rat.one); (2, Rat.zero) ];
    (* ¬(¬X ∧ Y) = X ∨ ¬Y: X gains 1/2, Y loses 1/2 *)
    case "backward: nested Not over And" ~vars:[ 1; 2 ]
      (cnot (cand [ cnot (cvar 1); cvar 2 ]))
      [ (1, r 1 2); (2, r (-1) 2) ];
    Alcotest.test_case "backward: universe must cover the circuit" `Quick
      (fun () ->
        Alcotest.check_raises "missing variable"
          (Invalid_argument "Count: universe misses circuit variables")
          (fun () ->
            ignore
              (Count.differences ~weight:Count.counting ~vars:[ 1 ]
                 (cand [ cvar 1; cvar 2 ])))) ]

(* ------------------------------------------------------------------ *)
(* Decisions on blocks of twin leaves.  Random formulas rarely hold
   twins; substituted ones hold them at every variable: uniform OR- and
   AND-substitutions, the mixed widths of Lemma 3.4, a substitution of a
   substitution, and a zap (Lemma 3.2) before an OR-substitution. *)

let arb_blocks =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (f, kind, l) ->
      Printf.sprintf "kind %d, l=%d: %s" kind l (Formula.to_string f))
    (triple (gen_formula ~nvars:4 ~depth:3) (int_range 0 4) (int_range 1 3))

(* The substituted formula and its universe, the fresh variables. *)
let substituted (f, kind, l) =
  let g, blocks =
    match kind with
    | 0 -> Subst.uniform_or ~l f
    | 1 -> Subst.uniform_and ~l f
    | 2 -> Subst.or_subst ~widths:(fun v -> 1 + ((v + l) mod 3)) f
    | 3 ->
      let g, _ = Subst.or_subst ~widths:(fun v -> 1 + ((v + l) mod 2)) f in
      Subst.or_subst ~widths:(fun v -> 1 + (v mod 2)) g
    | _ ->
      let g, _ = Subst.zap ~zero:(Vset.singleton l) f in
      Subst.uniform_or ~l:2 g
  in
  (g, List.concat_map snd blocks)

(* Brute force, counting and the compiled circuit agree on [#_*]; both
   algebras report the same search; the circuit is d-D and equivalent. *)
let blocks_agree ~vars f =
  let c, st = Compile.compile_with_stats f in
  let b = Brute.count_by_size ~vars f in
  Kvec.equal b (Dpll.count_by_size_universe ~vars f)
  && Kvec.equal b (Count.count_by_size ~vars c)
  && snd (Dpll.count_with_stats f) = st
  && Circuit.check_deterministic ~max_vars:14 c
  && Circuit.equivalent_formula ~max_vars:14 c f

let block_tests =
  let open Formula in
  let v i = Var i in
  (* Raw constructors, so each shape reaches the search as written. *)
  let case name ?decisions f =
    Alcotest.test_case ("blocks: " ^ name) `Quick (fun () ->
        Alcotest.(check bool) "agree" true
          (blocks_agree ~vars:(Vset.elements (Formula.vars f)) f);
        Option.iter
          (fun d ->
            Alcotest.(check int) "decisions" d
              (snd (Dpll.count_with_stats f)).Dpll.branches)
          decisions)
  in
  [ dtest ~seed:14 ~count:150
      "blocks: brute = dpll = circuit on substituted formulas" arb_blocks
      (fun inst ->
        let g, vars = substituted inst in
        QCheck.assume (List.length vars <= 14);
        blocks_agree ~vars g);
    case "under Not" ~decisions:1
      (And [ Not (Or [ v 1; v 2; v 3 ]); Or [ Not (Or [ v 1; v 2 ]); v 4 ] ]);
    case "plain and negated" ~decisions:1
      (Or [ And [ v 3; Or [ v 1; v 2 ] ]; And [ v 4; Not (Or [ v 1; v 2 ]) ] ]);
    case "flattened into an enclosing Or" ~decisions:1
      (Or [ v 1; v 2; And [ v 3; Or [ v 1; v 2; v 4 ] ] ]);
    case "of a conjunction" ~decisions:1
      (And [ v 1; v 2; Or [ v 3; And [ v 1; v 2; v 4 ] ] ]);
    (* x2 sits beside x1 in both of x1's nodes, and in a third. *)
    case "a neighbour that occurs elsewhere is no twin"
      (And
         [ Or [ v 1; v 2; v 3 ];
           Or [ v 1; v 1; v 1; v 2; v 4 ];
           Or [ v 2; v 3; v 4 ] ]);
    (* Counting the Or twice would make x3 a twin of x2, though x3 is
       also a leaf of the And. *)
    case "a leaf twice in one node" (Not (And [ v 3; Or [ v 2; v 3; v 2 ] ]));
    case "a leaf twice in one node, swapped"
      (Not (And [ v 2; Or [ v 3; v 2; v 3 ] ])) ]

let suite =
  counter_tests @ shap_tests @ reverse_tests @ backward_tests
  @ backward_edge_cases @ search_tests @ block_tests

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

(* Random CNFs over 1..6 that open with a unit clause, with one extra
   universe variable. *)
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
    (map2 (fun u cls -> [ u ] :: cls) lit (list_size (int_range 0 5) clause))

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
          (Compile.compile (Nf.cnf_to_formula cnf)));
    dtest ~seed:11 ~count:25
      "backward pass = conditioning = naive (Lemma 3.4 OR-substitution)"
      arb_lemma34
      (fun (f, l, keep) ->
        let g, blocks =
          Or_subst.or_subst ~universe:(Vset.of_list (universe 3))
            ~widths:(fun v -> if v = keep then 1 else l)
            (Compile.compile f)
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
      let g, _ = Subst.or_subst ~widths:(fun v -> if v = l then 0 else 1) f in
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
  let open Raw in
  let v = var in
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
      (and_
         [ not_ (or_ [ v 1; v 2; v 3 ]); or_ [ not_ (or_ [ v 1; v 2 ]); v 4 ] ]);
    case "plain and negated" ~decisions:1
      (or_
         [ and_ [ v 3; or_ [ v 1; v 2 ] ];
           and_ [ v 4; not_ (or_ [ v 1; v 2 ]) ] ]);
    case "flattened into an enclosing Or" ~decisions:1
      (or_ [ v 1; v 2; and_ [ v 3; or_ [ v 1; v 2; v 4 ] ] ]);
    case "of a conjunction" ~decisions:1
      (or_
         [ and_ [ v 1; v 2; v 3 ]; and_ [ v 1; v 2; v 4 ];
           and_ [ v 1; v 2; v 5 ] ]);
    (* x2 sits beside x1 in both of x1's nodes, and in a third. *)
    case "a neighbour that occurs elsewhere is no twin"
      (and_
         [ or_ [ v 1; v 2; v 3 ];
           or_ [ v 1; v 1; v 1; v 2; v 4 ];
           or_ [ v 2; v 3; v 4 ] ]);
    (* Counting the Or twice would make x3 a twin of x2, though x3 is
       also a leaf of the And. *)
    case "a leaf twice in one node"
      (not_ (and_ [ v 3; or_ [ v 2; v 3; v 2 ] ]));
    case "a leaf twice in one node, swapped"
      (not_ (and_ [ v 2; or_ [ v 3; v 2; v 3 ] ])) ]

(* ------------------------------------------------------------------ *)
(* The unit rule on the served inputs.  A DNF term's literals fall into
   separate components, so no single-component [∧] node with literal
   children arises, and the search is the one without the rule. *)

(* batch-reduce's formulas: a DNF of n two-literal terms over x1..xn,
   term i holding x(i+1) and one other variable, a literal negated with
   probability 1/4. *)
let two_dnf st n =
  let lit v =
    if Random.State.int st 4 = 0 then Formula.not_ (Formula.var v)
    else Formula.var v
  in
  Formula.or_
    (List.init n (fun i ->
         let u = 1 + ((i + 1 + Random.State.int st (n - 1)) mod n) in
         Formula.and_ [ lit (i + 1); lit u ]))

(* Decisions, propagations and compiled gates of every search that both
   reductions of 12 such formulas (n = 4, 5, 6) run through their
   oracles, and of compiling 4 Q0 lineages over 5x5 databases. *)
let e2e_shape_totals () =
  let branches = ref 0 and propagations = ref 0 and gates = ref 0 in
  let note (st : Dpll.stats) g =
    branches := !branches + st.Dpll.branches;
    propagations := !propagations + st.Dpll.propagations;
    gates := !gates + g
  in
  let compile f =
    let c, st = Compile.compile_with_stats f in
    note st (Circuit.size c);
    c
  in
  let count =
    { Pipeline.oracle_name = "dpll";
      count =
        (fun ~vars g ->
          note (snd (Dpll.count_with_stats g)) 0;
          Dpll.count_universe ~vars g) }
  and shap =
    { Pipeline.shap_name = "circuit";
      shap = (fun ~vars g -> Circuit_shapley.shap_direct ~vars (compile g)) }
  in
  let st = Random.State.make [| 19 |] in
  List.iter
    (fun n ->
      for _ = 1 to 4 do
        let f = two_dnf st n and vars = universe n in
        ignore (Pipeline.shap_via_count_oracle ~oracle:count ~vars f);
        ignore (Pipeline.count_via_shap_oracle ~oracle:shap ~vars f)
      done)
    [ 4; 5; 6 ];
  List.iter
    (fun seed ->
      let db, q = random_q0_db ~a:5 ~b:5 ~density:0.5 ~seed in
      ignore (compile (Lineage.lineage_formula db q)))
    [ 1; 2; 3; 4 ];
  (!branches, !propagations, !gates)

let e2e_shape_tests =
  [ Alcotest.test_case "search: no propagation on OR-substituted DNF and Q0"
      `Quick (fun () ->
        let branches, propagations, gates = e2e_shape_totals () in
        Alcotest.(check int) "propagations" 0 propagations;
        (* decisions and gates as before the unit rule *)
        Alcotest.(check int) "decisions" 2789 branches;
        Alcotest.(check int) "gates" 8990 gates) ]

(* ------------------------------------------------------------------ *)
(* One join for Section 5.  The searches [Lineage.fold] replaced, kept as
   oracles: [Lineage]'s assignment search and its clause search, which
   both match a stored tuple with [matches]. *)
module Old_join = struct
  let matches env (a : Cq.atom) (s : Database.stored) =
    let bind acc i =
      match acc with
      | None -> None
      | Some env ->
        (match a.args.(i) with
         | Cq.C v -> if Value.equal v s.values.(i) then Some env else None
         | Cq.V x ->
           (match List.assoc_opt x env with
            | Some v -> if Value.equal v s.values.(i) then Some env else None
            | None -> Some ((x, s.values.(i)) :: env)))
    in
    let rec go acc i =
      if i >= Array.length a.args then acc else go (bind acc i) (i + 1)
    in
    go (Some env) 0

  let assignments db q =
    Cq.check_against q db;
    if not (Cq.is_positive q) then
      invalid_arg "Lineage.assignments: query has negated atoms";
    let out = ref [] in
    let rec search env used = function
      | [] -> out := (env, used) :: !out
      | (a : Cq.atom) :: rest ->
        List.iter
          (fun (s : Database.stored) ->
             match matches env a s with
             | None -> ()
             | Some env' ->
               let used' =
                 match s.lvar with
                 | Some v -> Vset.add v used
                 | None -> used
               in
               search env' used' rest)
          (Database.tuples db a.rel)
    in
    search [] Vset.empty q.atoms;
    List.rev_map (fun (env, used) -> (List.rev env, used)) !out

  let lineage db q =
    List.sort_uniq Vset.compare (List.map snd (assignments db q))

  let negated_effect db env (a : Cq.atom) =
    let values =
      Array.map
        (function
          | Cq.C v -> v
          | Cq.V x ->
            (match List.assoc_opt x env with
             | Some v -> v
             | None ->
               invalid_arg
                 "Lineage: unsafe negation (variable not bound positively)"))
        a.args
    in
    let row =
      List.find_opt
        (fun (s : Database.stored) -> s.values = values)
        (Database.tuples db a.rel)
    in
    match (row, Database.kind_of db a.rel) with
    | None, _ -> Some None
    | Some _, Database.Exogenous -> None
    | Some s, Database.Endogenous -> Some (Some (Option.get s.lvar))

  let lineage_clauses db q =
    Cq.check_against q db;
    let positive, negated =
      List.partition (fun (a : Cq.atom) -> not a.Cq.negated) q.Cq.atoms
    in
    let out = ref [] in
    let rec search env used = function
      | [] ->
        let rec extend neg = function
          | [] ->
            if Vset.disjoint used neg then
              out := { Nf.pos = used; Nf.neg } :: !out
          | a :: rest ->
            (match negated_effect db env a with
             | None -> ()
             | Some None -> extend neg rest
             | Some (Some v) -> extend (Vset.add v neg) rest)
        in
        extend Vset.empty negated
      | (a : Cq.atom) :: rest ->
        List.iter
          (fun (s : Database.stored) ->
             match matches env a s with
             | None -> ()
             | Some env' ->
               let used' =
                 match s.lvar with
                 | Some v -> Vset.add v used
                 | None -> used
               in
               search env' used' rest)
          (Database.tuples db a.rel)
    in
    if positive = [] then invalid_arg "Lineage: no positive atoms";
    search [] Vset.empty positive;
    let key (c : Nf.clause) =
      (Vset.elements c.Nf.pos, Vset.elements c.Nf.neg)
    in
    List.sort_uniq (fun a b -> compare (key a) (key b)) !out

  let lineage_formula db q =
    if Cq.is_positive q then Nf.pdnf_to_formula (lineage db q)
    else Nf.dnf_to_formula (lineage_clauses db q)
end

(* Random databases over a fixed schema: endogenous R/1 and S/2,
   exogenous E/1 and X/2, and Z/1, endogenous and always empty.  Rows
   are drawn from 1..3 in random insertion order.  Queries have one to
   three positive atoms over all five relations (Z least often), with
   variables x, y, z and constants 1, 2, so self-joins, repeated
   variables and constants all occur; then up to two negated atoms whose
   variables are the positive atoms' (safe negation, on endogenous and
   exogenous relations alike).  Of the 200 instances tier-1 draws, 99
   have a self-join, 156 a constant and 50 an atom on Z; 65 have a
   non-empty lineage, 94 negate an endogenous atom, 65 an exogenous one,
   and 16 lineages carry a negative literal. *)
let join_schema =
  [ ("R", Database.Endogenous, 1); ("S", Database.Endogenous, 2);
    ("E", Database.Exogenous, 1); ("X", Database.Exogenous, 2);
    ("Z", Database.Endogenous, 1) ]

let gen_join_instance =
  let open QCheck.Gen in
  let dedup l =
    List.rev
      (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc)
         [] l)
  in
  let row arity = list_repeat arity (int_range 1 3) in
  let rows (rel, _, arity) =
    if rel = "Z" then return []
    else map dedup (list_size (int_range 0 (4 * arity)) (row arity))
  in
  let* rows = flatten_l (List.map rows join_schema) in
  let atom ~negated terms =
    let* rel, _, arity =
      frequencyl (List.combine [ 3; 3; 2; 2; 1 ] join_schema)
    in
    let* args = list_repeat arity (oneofl terms) in
    return (rel, args, negated)
  in
  let consts = [ Cq.C (Value.int 1); Cq.C (Value.int 2) ] in
  let vars = List.map (fun x -> Cq.V x) [ "x"; "y"; "z" ] in
  let* positive =
    list_size (int_range 1 3) (atom ~negated:false (vars @ vars @ consts))
  in
  let bound =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, args, _) ->
           List.filter (function Cq.V _ -> true | Cq.C _ -> false) args)
         positive)
  in
  let* negated =
    list_size (int_range 0 2) (atom ~negated:true (bound @ consts))
  in
  return (rows, positive @ negated)

let join_instance (rows, atoms) =
  let db = Database.create () in
  List.iter2
    (fun (rel, kind, arity) rs ->
      Database.declare db rel ~kind ~arity;
      List.iter
        (fun r ->
          ignore (Database.insert db rel (Array.of_list (List.map Value.int r))))
        rs)
    join_schema rows;
  let atom (rel, args, negated) =
    (if negated then Cq.negated_atom else Cq.atom) rel args
  in
  (db, Cq.make (List.map atom atoms))

let arb_join =
  QCheck.make
    ~print:(fun inst ->
      let db, q = join_instance inst in
      Format.asprintf "%s@\n%a" (Cq.to_string q) Database.pp db)
    gen_join_instance

let join_tests =
  [ dtest ~seed:15 ~count:200 "one join: lineage = old searches"
      arb_join
      (fun inst ->
        let db, q = join_instance inst in
        let key (c : Nf.clause) =
          (Vset.elements c.Nf.pos, Vset.elements c.Nf.neg)
        in
        let lineage_agrees =
          if Cq.is_positive q then
            List.equal Vset.equal (Lineage.lineage db q) (Old_join.lineage db q)
          else
            try ignore (Lineage.lineage db q); false
            with Invalid_argument _ -> true
        in
        Formula.equal (Lineage.lineage_formula db q)
          (Old_join.lineage_formula db q)
        && List.map key (Lineage.lineage_clauses db q)
           = List.map key (Old_join.lineage_clauses db q)
        && lineage_agrees) ]

(* ------------------------------------------------------------------ *)
(* One Theorem 3.1 chain.  The chains [Pipeline]'s class-generic chain
   replaced, kept as oracles: [Pipeline]'s formula chain, the reduction
   routes of [Circuit_shapley] and [Hardness]'s Q0 chain.  The helpers
   they called for [~F], [~F'] and [F^(l,i)] ([isomorphic_copy], [zap],
   [uniform_or_except]) are written as the widths they passed, and
   [Reductions.count_via_shap] as the total it took. *)
module Old_chains = struct
  let sorted_universe ~vars f =
    let universe = Vset.of_list vars in
    if Vset.cardinal universe <> List.length vars then
      invalid_arg "Pipeline: duplicate variables in the universe";
    if not (Vset.subset (Formula.vars f) universe) then
      invalid_arg "Pipeline: universe misses variables of the formula";
    (universe, List.sort compare vars)

  let ledgered_count ~(oracle : Pipeline.count_oracle) ?arity ?attrs ~vars f
      =
    if not (Obs.observing ()) then oracle.count ~vars f
    else
      Obs.call ~oracle:oracle.oracle_name ~n:(List.length vars) ?arity ?attrs
        ~size:(Formula.size f)
        (fun () -> oracle.count ~vars f)

  let ledgered_shap ~(oracle : Pipeline.shap_oracle) ?arity ?attrs ~vars f =
    if not (Obs.observing ()) then oracle.shap ~vars f
    else
      Obs.call ~oracle:oracle.shap_name ~n:(List.length vars) ?arity ?attrs
        ~size:(Formula.size f)
        (fun () -> oracle.shap ~vars f)

  let kcounts_via_count_oracle ~oracle ~vars f =
    let universe, sorted = sorted_universe ~vars f in
    let n = List.length sorted in
    Obs.with_span "pipeline.kcounts_via_count_oracle"
      ~attrs:[ ("n", Trace.Int n) ]
    @@ fun () ->
    Reductions.kcounts_via_counting ~n ~count_subst:(fun ~l ->
        let g, blocks = Subst.uniform_or ~universe ~l f in
        ledgered_count ~oracle ~arity:l
          ~attrs:[ ("lemma", Trace.Str "3.3") ]
          ~vars:(List.concat_map snd blocks) g)

  let shap_via_count_oracle ~oracle ~vars f =
    let universe, sorted = sorted_universe ~vars f in
    let n = List.length sorted in
    Obs.with_span "pipeline.shap_via_count_oracle"
      ~attrs:[ ("n", Trace.Int n) ]
    @@ fun () ->
    let kcount_full =
      Obs.phase "lemma3.2.full" ~attrs:[ ("n", Trace.Int n) ];
      let tilde_f, blocks = Subst.or_subst ~universe ~widths:(fun _ -> 1) f in
      kcounts_via_count_oracle ~oracle ~vars:(List.concat_map snd blocks)
        tilde_f
    in
    let sorted_arr = Array.of_list sorted in
    let kcount_drop pos =
      let i = sorted_arr.(pos) in
      Obs.phase "lemma3.2.drop" ~attrs:[ ("i", Trace.Int i) ];
      let tilde_f', blocks =
        Subst.or_subst ~universe ~widths:(fun v -> if v = i then 0 else 1) f
      in
      kcounts_via_count_oracle ~oracle ~vars:(List.concat_map snd blocks)
        tilde_f'
    in
    let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
    List.mapi (fun pos i -> (i, values.(pos))) sorted

  let count_via_shap_oracle ~oracle ~vars f =
    let universe, sorted = sorted_universe ~vars f in
    let n = List.length sorted in
    let f_zero = Formula.eval_set Vset.empty f in
    let sorted_arr = Array.of_list sorted in
    Kvec.total
      (Obs.with_span "pipeline.kcounts_via_shap_oracle" @@ fun () ->
       Reductions.kcounts_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
           let i = sorted_arr.(pos) in
           let g, blocks =
             Subst.or_subst ~universe
               ~widths:(fun v -> if v = i then 1 else l) f
           in
           let z = List.hd (List.assoc i blocks) in
           match
             List.assoc_opt z
               (ledgered_shap ~oracle ~arity:l
                  ~attrs:[ ("lemma", Trace.Str "3.4") ]
                  ~vars:(List.concat_map snd blocks) g)
           with
           | Some v -> v
           | None -> failwith "Pipeline: Shapley oracle did not report Z_i"))

  let circuit_universe ~vars g =
    let universe = Vset.of_list vars in
    if Vset.cardinal universe <> List.length vars then
      invalid_arg "Circuit_shapley: duplicate variables in the universe";
    if not (Vset.subset (Circuit.vars g) universe) then
      invalid_arg "Circuit_shapley: universe misses circuit variables";
    (universe, List.sort compare vars)

  let kcounts_via_reduction ~vars g =
    let universe, sorted = circuit_universe ~vars g in
    let n = List.length sorted in
    Reductions.kcounts_via_counting ~n ~count_subst:(fun ~l ->
        let g', blocks = Or_subst.uniform_or ~universe ~l g in
        Count.count ~vars:(List.concat_map snd blocks) g')

  let shap_via_reduction ~vars g =
    let universe, sorted = circuit_universe ~vars g in
    let n = List.length sorted in
    let kcount_of ~vars g' = kcounts_via_reduction ~vars g' in
    let kcount_full =
      let tilde_g, blocks =
        Or_subst.or_subst ~universe ~widths:(fun _ -> 1) g
      in
      kcount_of ~vars:(List.concat_map snd blocks) tilde_g
    in
    let kcount_drop pos =
      let i = List.nth sorted pos in
      let tilde_g', blocks =
        Or_subst.or_subst ~universe ~widths:(fun v -> if v = i then 0 else 1) g
      in
      kcount_of ~vars:(List.concat_map snd blocks) tilde_g'
    in
    let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
    List.mapi (fun pos i -> (i, values.(pos))) sorted

  let count_via_shap ~vars g =
    let universe, sorted = circuit_universe ~vars g in
    let n = List.length sorted in
    let f_zero = Circuit.eval_set Vset.empty g in
    Kvec.total
      (Reductions.kcounts_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
           let i = List.nth sorted pos in
           let g', blocks =
             Or_subst.or_subst ~universe
               ~widths:(fun v -> if v = i then 1 else l) g
           in
           let z = List.hd (List.assoc i blocks) in
           let gvars = List.concat_map snd blocks in
           match
             List.assoc_opt z (Circuit_shapley.shap_direct ~vars:gvars g')
           with
           | Some v -> v
           | None -> failwith "Circuit_shapley: oracle did not report Z_i"))

  let count_via_q0_shapley ~oracle inst =
    let db, q = Hardness.encode inst in
    let f = Lineage.lineage_formula db q in
    let universe = Vset.elements (Database.lineage_vars db) in
    let sorted = List.sort compare universe in
    let n = List.length sorted in
    let f_zero = Formula.eval_set Vset.empty f in
    Kvec.total
      (Reductions.kcounts_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
           let i = List.nth sorted pos in
           let widths v = if v = i then 1 else l in
           let db', blocks = Stretch.or_substituted_q0_db ~widths db in
           let z =
             match List.assoc_opt i blocks with
             | Some [ z ] -> z
             | _ ->
               failwith "Hardness: expected singleton block for kept variable"
           in
           match List.assoc_opt z (oracle db') with
           | Some v -> v
           | None -> failwith "Hardness: oracle did not report Z_i"))
end

(* Run [f] with the ledger on and a trace recording; return its result
   and the [(kind, name, attrs)] of every event, timings dropped. *)
let traced f =
  let stream = Trace.create () in
  Obs.reset ();
  Obs.enable ();
  Obs.set_trace (Some stream);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace None;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let r = f () in
      ( r,
        List.map
          (fun e -> (e.Trace.kind, e.Trace.name, e.Trace.attrs))
          (Trace.events stream) ))

(* A compiled formula on 1..4, maybe negated, over a universe of up to
   two variables the circuit does not mention. *)
let arb_chain_circuit =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (f, neg, extra) ->
      Printf.sprintf "neg %b, extra %d: %s" neg extra (Formula.to_string f))
    (triple (gen_formula ~nvars:4 ~depth:3) bool (int_range 0 2))

let chain_circuit (f, neg, extra) =
  let c = Compile.compile f in
  ((if neg then Circuit.cnot c else c), universe (4 + extra))

let arb_bipartite =
  QCheck.make
    ~print:(fun (a, b, d, seed) ->
      Printf.sprintf "a=%d b=%d d=%d seed=%d" a b d seed)
    QCheck.Gen.(quad (int_range 1 3) (int_range 1 2) (int_range 0 4) nat)

let chain_tests =
  [ dtest ~seed:16 ~count:40 "one chain: circuit routes = old chains"
      arb_chain_circuit (fun inst ->
        let c, vars = chain_circuit inst in
        Kvec.equal
          (Circuit_shapley.kcounts_via_reduction ~vars c)
          (Old_chains.kcounts_via_reduction ~vars c)
        && same_values
             (Circuit_shapley.shap_via_reduction ~vars c)
             (Old_chains.shap_via_reduction ~vars c)
        && Bigint.equal
             (Circuit_shapley.count_via_shap ~vars c)
             (Old_chains.count_via_shap ~vars c));
    dtest ~seed:17 ~count:10 "one chain: Q0 hardness = old chain"
      arb_bipartite (fun (a, b, d, seed) ->
        let inst =
          Bipartite.random ~a ~b ~density:(float_of_int d /. 4.) ~seed
        in
        let oracle = Hardness.reference_oracle in
        let count = Hardness.count_via_q0_shapley ~oracle inst in
        Bigint.equal count (Old_chains.count_via_q0_shapley ~oracle inst)
        && Bigint.equal count (Bipartite.count inst));
    dtest ~seed:18 ~count:25 "one chain: formula events = old chain's"
      (arb_formula ~nvars:3 ~depth:3) (fun f ->
        let vars = universe 4 in
        let count = Pipeline.dpll_count_oracle in
        let shap =
          { Pipeline.shap_name = "circuit-shapley";
            shap =
              (fun ~vars f ->
                Circuit_shapley.shap_direct ~vars (Compile.compile f)) }
        in
        let values, events =
          traced (fun () ->
              Pipeline.shap_via_count_oracle ~oracle:count ~vars f)
        and old_values, old_events =
          traced (fun () ->
              Old_chains.shap_via_count_oracle ~oracle:count ~vars f)
        in
        let total, shap_events =
          traced (fun () ->
              Pipeline.count_via_shap_oracle ~oracle:shap ~vars f)
        and old_total, old_shap_events =
          traced (fun () ->
              Old_chains.count_via_shap_oracle ~oracle:shap ~vars f)
        in
        same_values values old_values && events = old_events
        && Bigint.equal total old_total && shap_events = old_shap_events) ]

(* ------------------------------------------------------------------ *)
(* The ledger is the registry.  The tables [Obs] kept before its views
   read [Metrics] series, kept as an oracle: the per-oracle, per-kind
   and per-counter aggregates folded from a recorded stream's oracle,
   substitution and counter events, and the span calls from its
   begin/end nesting (which only a jobs = 1 stream keeps). *)
module Old_ledger = struct
  type agg = {
    mutable a_calls : int;
    mutable a_n_min : int;
    mutable a_n_max : int;
    mutable a_l_min : int;
    mutable a_l_max : int;
    mutable a_size_max : int;
  }

  type subst_agg = {
    mutable s_count : int;
    mutable s_pre_max : int;
    mutable s_post_max : int;
    mutable s_fresh : int;
  }

  type t = {
    aggs : (string, agg) Hashtbl.t;
    substs : (string, subst_agg) Hashtbl.t;
    counters : (string, int ref) Hashtbl.t;
    spans : (string, int ref) Hashtbl.t;
  }

  let agg_update t ~oracle ~n ~arity ~size =
    let a =
      match Hashtbl.find_opt t.aggs oracle with
      | Some a -> a
      | None ->
        let a =
          { a_calls = 0; a_n_min = max_int; a_n_max = -1; a_l_min = max_int;
            a_l_max = -1; a_size_max = -1 }
        in
        Hashtbl.replace t.aggs oracle a;
        a
    in
    a.a_calls <- a.a_calls + 1;
    a.a_n_min <- min a.a_n_min n;
    a.a_n_max <- max a.a_n_max n;
    if arity >= 0 then begin
      a.a_l_min <- min a.a_l_min arity;
      a.a_l_max <- max a.a_l_max arity
    end;
    a.a_size_max <- max a.a_size_max size

  let subst_update t ~kind ~pre ~post ~fresh =
    match Hashtbl.find_opt t.substs kind with
    | Some s ->
      s.s_count <- s.s_count + 1;
      s.s_pre_max <- max s.s_pre_max pre;
      s.s_post_max <- max s.s_post_max post;
      s.s_fresh <- s.s_fresh + fresh
    | None ->
      Hashtbl.replace t.substs kind
        { s_count = 1; s_pre_max = pre; s_post_max = post; s_fresh = fresh }

  let bump tbl k by =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tbl k (ref by)

  let of_events events =
    let t =
      { aggs = Hashtbl.create 8; substs = Hashtbl.create 4;
        counters = Hashtbl.create 32; spans = Hashtbl.create 32 }
    in
    let stack = ref [] in
    List.iter
      (fun (e : Trace.event) ->
        (* an absent arity or size was recorded as -1 *)
        let int k =
          match List.assoc_opt k e.attrs with Some (Trace.Int i) -> i | _ -> -1
        in
        match e.kind with
        | Trace.Oracle ->
          agg_update t ~oracle:e.name ~n:(int "n") ~arity:(int "l")
            ~size:(int "size")
        | Trace.Subst ->
          subst_update t ~kind:e.name ~pre:(int "pre") ~post:(int "post")
            ~fresh:(int "fresh")
        | Trace.Counter -> bump t.counters e.name (int "value")
        | Trace.Span_begin ->
          stack :=
            (match !stack with [] -> e.name | p :: _ -> p ^ "/" ^ e.name)
            :: !stack
        | Trace.Span_end -> (
            match !stack with
            | p :: rest ->
              bump t.spans p 1;
              stack := rest
            | [] -> ())
        | Trace.Phase -> ())
      events;
    t

  let sorted tbl f =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

  let aggregate t =
    sorted t.aggs (fun a ->
        (a.a_calls, a.a_n_min, a.a_n_max, a.a_l_min, a.a_l_max, a.a_size_max))

  let counters t = sorted t.counters ( ! )
  let span_calls t = sorted t.spans ( ! )

  (* The rows the report printed under "substitutions:". *)
  let subst_rows t =
    List.map
      (fun (kind, (c, pre, post, fresh)) ->
        Printf.sprintf "  %-14s %8d %10d %10d %8d" kind c pre post fresh)
      (sorted t.substs (fun s ->
           (s.s_count, s.s_pre_max, s.s_post_max, s.s_fresh)))
end

(* The indented rows under "substitutions:" in [Obs.report]. *)
let report_subst_rows () =
  let rec rows = function
    | l :: rest when String.length l > 2 && String.sub l 0 2 = "  " ->
      l :: rows rest
    | _ -> []
  in
  let rec find = function
    | "substitutions:" :: _header :: rest -> rows rest
    | _ :: rest -> find rest
    | [] -> []
  in
  find (String.split_on_char '\n' (Obs.report ()))

(* Run [f] at [jobs] with the ledger on and an uncapped stream, then
   compare the ledger's views with [Old_ledger] over the stream. *)
let ledger_agrees ~jobs f =
  let stream = Trace.create ~cap:max_int () in
  let before = Par.jobs () in
  Obs.reset ();
  Obs.enable ();
  Obs.set_trace (Some stream);
  Par.set_jobs jobs;
  Fun.protect
    ~finally:(fun () ->
      Par.set_jobs before;
      Obs.set_trace None;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      f ();
      let old = Old_ledger.of_events (Trace.events stream) in
      List.map
        (fun (k, (a : Obs.agg)) ->
          (k, (a.a_calls, a.a_n_min, a.a_n_max, a.a_l_min, a.a_l_max,
               a.a_size_max)))
        (Obs.aggregate ())
      = Old_ledger.aggregate old
      && Obs.counters () = Old_ledger.counters old
      && report_subst_rows () = Old_ledger.subst_rows old
      && (jobs > 1
          || List.map (fun s -> (s.Obs.span_path, s.Obs.span_calls))
               (Obs.spans ())
             = Old_ledger.span_calls old))

let ledger_tests =
  [ dtest ~seed:19 ~count:20 "ledger views = old ledger tables (jobs 1, 3)"
      (arb_formula ~nvars:3 ~depth:3) (fun f ->
        let vars = universe 4 in
        let shap =
          { Pipeline.shap_name = "circuit-shapley";
            shap =
              (fun ~vars f ->
                Circuit_shapley.shap_direct ~vars (Compile.compile f)) }
        in
        let run () =
          ignore
            (Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
               ~vars f);
          ignore (Pipeline.count_via_shap_oracle ~oracle:shap ~vars f);
          ignore
            (Pipeline.shap_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
               ~vars f);
          ignore (Count.count ~vars (Compile.compile f))
        in
        ledger_agrees ~jobs:1 run && ledger_agrees ~jobs:3 run) ]

(* ------------------------------------------------------------------ *)
(* The quotient backward pass: each child of an ∧ or a variable-disjoint
   ∨ receives the parent's product divided by its own vector, so the
   cases a division must not see get circuits of their own.  Under
   counting, a zero sibling of an ∧ is an unsatisfiable gate the
   constructors keep, the negation of [cor_det [x; !x]]; a zero sibling
   of a disjoint ∨ (whose siblings are complements) is that tautology.
   Both derive to zero, so the adjoint a zero sibling receives shows
   only at a leaf: under [zero_weight] leaves 10 and 25 weigh zero and
   the complements of 2 and 12 are zero, and [weighted_differences]
   sums the weights of every model to check the pass under it. *)
let zero_weight =
  let vec a b = Kvec.make ~n:1 [| Bigint.of_int a; Bigint.of_int b |] in
  let free = vec 2 5 in
  { Count.leaf =
      (function
        | 10 | 25 -> Kvec.zero ~n:1
        | 2 | 12 -> free
        | v -> vec (v mod 3) (1 + (v mod 4)));
    free }

let weighted_differences ~weight ~vars g =
  let sorted = List.sort compare vars in
  List.map
    (fun x ->
      let others = List.filter (fun v -> v <> x) sorted in
      let root b =
        let rec models acc set = function
          | [] ->
            if Circuit.eval_set (if b then Vset.add x set else set) g then
              Kvec.add acc
                (Kvec.conv_list
                   (List.map
                      (fun y ->
                        if Vset.mem y set then weight.Count.leaf y
                        else Kvec.sub weight.Count.free (weight.Count.leaf y))
                      others))
            else acc
          | y :: rest -> models (models acc set rest) (Vset.add y set) rest
        in
        models (Kvec.zero ~n:(List.length others)) Vset.empty others
      in
      (x, Kvec.sub (root true) (root false)))
    sorted

let backward_quotient_cases =
  let open Circuit in
  let x = cvar in
  let taut i = cor_det [ x i; cnot (x i) ] in
  let zero i = cnot (taut i) in
  let case name g =
    Alcotest.test_case ("backward: " ^ name) `Quick (fun () ->
        let vars = Vset.elements (Circuit.vars g) @ [ 99 ] in
        Alcotest.(check bool) "= conditioning" true (backward_agrees ~vars g);
        Alcotest.(check bool) "= the weighted models" true
          (List.for_all2
             (fun (i, a) (j, b) -> i = j && Kvec.equal a b)
             (Count.differences ~weight:zero_weight ~vars g)
             (weighted_differences ~weight:zero_weight ~vars g)))
  in
  [ case "one zero sibling of three (And)"
      (cor_disj [ cand [ x 1; x 3; zero 4 ]; cand [ x 6; x 8; x 10 ]; x 9 ]);
    case "one zero sibling of three (disjoint Or)"
      (cand
         [ cor_disj [ x 1; x 3; taut 4 ]; cor_disj [ x 6; x 8; x 12 ]; x 9 ]);
    case "two zero siblings (And)"
      (cor_disj
         [ cand [ x 1; zero 3; zero 4 ]; cand [ x 10; x 25; x 6 ]; x 9 ]);
    case "two zero siblings (disjoint Or)"
      (cand
         [ cor_disj [ x 1; taut 3; taut 4 ]; cor_disj [ x 2; x 12; x 6 ]; x 9 ]);
    case "equal siblings"
      (cor_disj
         [ cand [ x 1; x 3 ]; cand [ x 4; x 6 ]; cand [ x 7; x 8 ];
           cand [ x 9; x 11; x 13 ] ]);
    case "lowest nonzero coefficient not 1"
      (cor_disj
         [ cand [ cor_disj [ x 1; x 3 ]; x 4; cor_disj [ x 6; x 7; x 8 ] ];
           cand [ cor_disj [ x 9; x 11 ]; cnot (x 13) ] ]) ]

(* ------------------------------------------------------------------ *)
(* The safe plan before it carried rows, kept as an oracle: it branched
   on every value of the root's positions in the first atom's whole
   relation and resolved each ground atom with [Database.find_tuple]. *)
module Old_plan = struct
  let subst_atom x v (a : Cq.atom) =
    { a with
      Cq.args =
        Array.map (function Cq.V y when y = x -> Cq.C v | t -> t) a.args }

  let atom_vars (a : Cq.atom) =
    Array.to_list a.args
    |> List.filter_map (function Cq.V x -> Some x | Cq.C _ -> None)
    |> List.sort_uniq compare

  let is_ground a = atom_vars a = []

  let ground_leaf db (a : Cq.atom) =
    let values =
      Array.map (function Cq.C v -> v | Cq.V _ -> assert false) a.args
    in
    match Database.find_tuple db a.rel values with
    | None -> Circuit.cfalse
    | Some { Database.lvar = None; _ } -> Circuit.ctrue
    | Some { Database.lvar = Some v; _ } -> Circuit.cvar v

  let components atoms =
    let merge groups (vs, members) =
      let touching, rest =
        List.partition
          (fun (ws, _) -> List.exists (fun v -> List.mem v ws) vs)
          groups
      in
      let vs' = List.sort_uniq compare (vs @ List.concat_map fst touching) in
      (vs', members @ List.concat_map snd touching) :: rest
    in
    List.fold_left merge [] (List.map (fun a -> (atom_vars a, [ a ])) atoms)

  let root_variable atoms =
    match atoms with
    | [] -> None
    | first :: _ ->
      List.find_opt
        (fun x ->
          List.for_all
            (fun (a : Cq.atom) ->
              Array.exists (function Cq.V y -> y = x | Cq.C _ -> false) a.args)
            atoms)
        (atom_vars first)

  let candidate_values db x atoms =
    match atoms with
    | [] -> []
    | (a : Cq.atom) :: _ ->
      List.concat_map
        (fun (s : Database.stored) ->
          List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun i t ->
                    match t with
                    | Cq.V y when y = x -> Some s.values.(i)
                    | _ -> None)
                  a.args)))
        (Database.tuples db a.rel)
      |> List.sort_uniq Value.compare

  let rec plan db atoms =
    let ground, open_atoms = List.partition is_ground atoms in
    let ground_circuits = List.map (ground_leaf db) ground in
    let rest =
      List.map (fun (_, members) -> plan_connected db members)
        (components open_atoms)
    in
    Circuit.cand (ground_circuits @ rest)

  and plan_connected db atoms =
    match root_variable atoms with
    | None -> invalid_arg "Old_plan: no root variable"
    | Some x ->
      Circuit.cor_disj
        (List.map
           (fun v -> plan db (List.map (subst_atom x v) atoms))
           (candidate_values db x atoms))

  let lineage_circuit db (q : Cq.t) = plan db q.Cq.atoms
end

(* Today's hierarchical queries and the shapes the row partition must
   get right: the root in two positions of one atom, a constant, three
   levels, exogenous inner atoms and two components.  R, S and V are
   endogenous, T and E exogenous, over the domain 1..3. *)
let plan_queries =
  Array.append hierarchical_queries
    [| "R(x), S(x,x)"; "R(x), S(x,3)"; "R(x), S(x,y), V(x,y,z)";
       "R(x), E(x,y)"; "S(x,y), E(x,y), T(x)"; "R(x), T(y)";
       "R(x), S(x,y), T(z), V(z,z,w)"; "S(3,y), V(3,y,y)" |]

let arb_plan =
  let open QCheck.Gen in
  let sub g = map (List.sort_uniq compare) (list_size (int_range 0 6) g) in
  let d = int_range 1 3 in
  QCheck.make
    ~print:(fun (q, (r, s, t), (v, e)) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      let tuples l =
        String.concat ","
          (List.map (fun l -> String.concat "." (List.map string_of_int l)) l)
      in
      Printf.sprintf "%s R=%s S=%s T=%s V=%s E=%s" plan_queries.(q) (ints r)
        (tuples s) (ints t) (tuples v) (tuples e))
    (triple
       (int_range 0 (Array.length plan_queries - 1))
       (triple (sub d) (sub (map2 (fun a b -> [ a; b ]) d d)) (sub d))
       (pair
          (sub (map3 (fun a b c -> [ a; b; c ]) d d d))
          (sub (map2 (fun a b -> [ a; b ]) d d))))

let plan_instance (q, (r, s, t), (v, e)) =
  let db = Database.create () in
  let rel name kind arity rows =
    Database.declare db name ~kind ~arity;
    List.iter
      (fun row ->
        ignore
          (Database.insert db name (Array.of_list (List.map Value.int row))))
      rows
  in
  rel "R" Database.Endogenous 1 (List.map (fun a -> [ a ]) r);
  rel "S" Database.Endogenous 2 s;
  rel "T" Database.Exogenous 1 (List.map (fun a -> [ a ]) t);
  rel "V" Database.Endogenous 3 v;
  rel "E" Database.Exogenous 2 e;
  (db, Db_parser.parse_query plan_queries.(q))

let plan_tests =
  [ dtest ~seed:20 ~count:300 "safe plan: the row-carrying plan = old plan (==)"
      arb_plan
      (fun inst ->
        let db, q = plan_instance inst in
        Safe_plan.lineage_circuit db q == Old_plan.lineage_circuit db q) ]

(* ------------------------------------------------------------------ *)
(* The search on plain trees, kept as an oracle: formulas without cached
   variables or hashes, restriction and simplification that rebuild the
   whole tree, and a memo keyed by polymorphic hashing and structural
   equality.  The annotated nodes must take the same decisions, hit the
   memo as often and build the same values. *)
module Old_search = struct
  type t = True | False | Var of int | Not of t | And of t list | Or of t list

  let not_ = function True -> False | False -> True | Not f -> f | f -> Not f

  let nary ~absorb ~unit_ ~flatten ~mk fs =
    let exception Absorbed in
    try
      let flat = List.concat_map flatten fs in
      let kept =
        List.filter
          (fun f ->
            if f = absorb then raise Absorbed;
            f <> unit_)
          flat
      in
      match kept with [] -> unit_ | [ f ] -> f | fs -> mk fs
    with Absorbed -> absorb

  let and_ fs =
    nary ~absorb:False ~unit_:True
      ~flatten:(function And gs -> gs | f -> [ f ])
      ~mk:(fun fs -> And fs) fs

  let or_ fs =
    nary ~absorb:True ~unit_:False
      ~flatten:(function Or gs -> gs | f -> [ f ])
      ~mk:(fun fs -> Or fs) fs

  let rec vars = function
    | True | False -> Vset.empty
    | Var v -> Vset.singleton v
    | Not f -> vars f
    | And fs | Or fs ->
      List.fold_left (fun acc f -> Vset.union acc (vars f)) Vset.empty fs

  let rec map_var h = function
    | (True | False) as f -> f
    | Var v -> h v
    | Not f -> not_ (map_var h f)
    | And fs -> and_ (List.map (map_var h) fs)
    | Or fs -> or_ (List.map (map_var h) fs)

  let restrict_set bindings f =
    map_var
      (fun u ->
        match List.assoc_opt u bindings with
        | Some b -> if b then True else False
        | None -> Var u)
      f

  let simplify f = map_var (fun v -> Var v) f

  (* A structural copy, unsimplified. *)
  let rec of_formula f =
    match Formula.view f with
    | Formula.True -> True
    | Formula.False -> False
    | Formula.Var v -> Var v
    | Formula.Not g -> Not (of_formula g)
    | Formula.And gs -> And (List.map of_formula gs)
    | Formula.Or gs -> Or (List.map of_formula gs)

  type role = Conj | Disj | Neither
  type occ = { mutable count : int; mutable role : role; mutable nodes : int list }

  let pick_block f =
    let occ = Hashtbl.create 16 in
    let leaf role node v =
      match Hashtbl.find_opt occ v with
      | None -> Hashtbl.add occ v { count = 1; role; nodes = [ node ] }
      | Some o ->
        o.count <- o.count + 1;
        if o.role <> role then o.role <- Neither;
        (match o.nodes with
         | n :: _ when n = node -> ()
         | ns -> o.nodes <- node :: ns)
    in
    let next = ref 0 in
    let rec go role node = function
      | True | False -> ()
      | Var v -> leaf role node v
      | Not g -> go Neither node g
      | And gs ->
        incr next;
        List.iter (go Conj !next) gs
      | Or gs ->
        incr next;
        List.iter (go Disj !next) gs
    in
    go Neither 0 f;
    let best = ref None in
    Hashtbl.iter
      (fun v o ->
        match !best with
        | Some (_, o') when o'.count >= o.count -> ()
        | _ -> best := Some (v, o))
      occ;
    match !best with
    | None -> invalid_arg "Old_search: no variable"
    | Some (x, ox) when ox.role = Neither -> ([ x ], false)
    | Some (x, ox) ->
      let twins =
        Hashtbl.fold
          (fun y o acc ->
            if y <> x && o.role = ox.role && o.nodes = ox.nodes then y :: acc
            else acc)
          occ []
      in
      (List.sort compare (x :: twins), ox.role = Conj)

  let rec propagate fixed f =
    let units =
      List.filter_map
        (function
          | Var x -> Some (x, true)
          | Not (Var x) -> Some (x, false)
          | _ -> None)
        (match f with And fs -> fs | f -> [ f ])
    in
    match List.sort_uniq (fun (x, _) (y, _) -> compare x y) units with
    | [] -> (fixed, f)
    | us -> propagate (us @ fixed) (restrict_set us f)

  let search (alg : 'a Dpll.algebra) f =
    let cache = Hashtbl.create 256 in
    let branches = ref 0 and propagations = ref 0 and cache_hits = ref 0 in
    let rec go f =
      match f with
      | True -> alg.const true
      | False -> alg.const false
      | Var x -> alg.var x
      | Not g -> alg.not_ (go g)
      | And fs | Or fs ->
        (match Hashtbl.find_opt cache f with
         | Some r ->
           incr cache_hits;
           r
         | None ->
           let r = compound f fs in
           Hashtbl.replace cache f r;
           r)
    and compound f fs =
      match Vset.components ~vars fs with
      | [ (scope, _) ] ->
        (match propagate [] f with
         | [], _ -> decide scope f
         | fixed, rest ->
           propagations := !propagations + List.length fixed;
           let lit (x, sign) = if sign then alg.var x else alg.not_ (alg.var x) in
           alg.decide (alg.conj (List.map lit fixed)) ~scope (alg.const false)
             (go rest))
      | groups ->
        (match f with
         | And _ -> alg.conj (List.map (fun (_, ms) -> go (and_ ms)) groups)
         | _ -> alg.disj (List.map (fun (_, ms) -> go (or_ ms)) groups))
    and decide scope f =
      let block, conj = pick_block f in
      let one = [ List.hd block ] in
      let fix vs b = restrict_set (List.map (fun v -> (v, b)) vs) f in
      incr branches;
      let lo = go (fix (if conj then one else block) false) in
      let hi = go (fix (if conj then block else one) true) in
      let vs = List.map (fun v -> Var v) block in
      let b = go (if conj then and_ vs else or_ vs) in
      alg.decide b ~scope lo hi
    in
    let r = go (simplify f) in
    ( r,
      { Dpll.branches = !branches; propagations = !propagations;
        cache_hits = !cache_hits } )

  (* The two instances, as the library builds them. *)
  let kvec =
    { Dpll.const = (fun b -> (if b then Kvec.const_true else Kvec.const_false) ~n:0);
      var = (fun _ -> Kvec.singleton_true);
      not_ = Kvec.complement;
      conj = Kvec.conv_list;
      disj =
        (fun parts ->
          Kvec.complement (Kvec.conv_list (List.map Kvec.complement parts)));
      decide =
        (fun b ~scope lo hi ->
          let rest = Vset.cardinal scope - Kvec.universe_size b in
          let pad kv = Kvec.extend kv ~extra:(rest - Kvec.universe_size kv) in
          Kvec.add
            (Kvec.conv (Kvec.complement b) (pad lo))
            (Kvec.conv b (pad hi))) }

  let circuit =
    { Dpll.const = Circuit.cbool;
      var = Circuit.cvar;
      not_ = Circuit.cnot;
      conj = Circuit.cand;
      disj = Circuit.cor_disj;
      decide =
        (fun b ~scope:_ lo hi ->
          Circuit.cor_det
            [ Circuit.cand [ Circuit.cnot b; lo ]; Circuit.cand [ b; hi ] ]) }
end

(* The same vector, stats, circuit node (==) and compile stats on both
   searches; a node the smart constructors built is also a fixpoint of
   the plain tree's simplification. *)
let same_search f =
  let old = Old_search.of_formula f in
  let v, st = Old_search.search Old_search.kvec old in
  let c, cst = Old_search.search Old_search.circuit old in
  let c', cst' = Compile.compile_with_stats f in
  Kvec.equal v (Dpll.count_by_size f)
  && st = snd (Dpll.count_with_stats f)
  && c == c' && cst = cst'
  && ((not f.Formula.normal) || Old_search.simplify old = old)

(* Random formulas with raw nodes: constants, nesting and double
   negation the smart constructors would have removed. *)
let gen_raw_formula ~nvars ~depth =
  let open QCheck.Gen in
  let rec go d =
    if d = 0 then
      frequency
        [ (8, map Raw.var (int_range 1 nvars)); (1, return Raw.tru);
          (1, return Raw.fls) ]
    else
      frequency
        [ (2, go 0); (2, map Raw.not_ (go (d - 1)));
          (3, map Raw.and_ (list_size (int_range 0 3) (go (d - 1))));
          (3, map Raw.or_ (list_size (int_range 0 3) (go (d - 1)))) ]
  in
  go depth

let arb_search_input =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (kind, seed, n, widths) ->
      Printf.sprintf "kind %d seed %d n %d widths %s" kind seed n
        (String.concat "," (List.map string_of_int widths)))
    (quad (int_range 0 4) (int_bound 1_000_000) (int_range 3 6)
       (list_repeat 6 (int_range 0 7)))

(* kind 0: a random formula; 1: a raw one; 2: batch-reduce's DNF shape,
   OR-substituted with widths 0..7; 3: a random CNF opening with a unit
   clause; 4: a Q0 lineage. *)
let search_input (kind, seed, n, widths) =
  let st = Random.State.make [| seed |] in
  let gen g = QCheck.Gen.generate1 ~rand:st g in
  match kind with
  | 0 -> gen (gen_formula ~nvars:8 ~depth:5)
  | 1 -> gen (gen_raw_formula ~nvars:6 ~depth:4)
  | 2 ->
    let w = Array.of_list widths in
    fst (Subst.or_subst ~widths:(fun v -> w.((v - 1) mod 6)) (two_dnf st n))
  | 3 -> Nf.cnf_to_formula (cnf_of (QCheck.gen arb_cnf st))
  | _ ->
    let db, q = random_q0_db ~a:n ~b:n ~density:0.5 ~seed in
    Lineage.lineage_formula db q

(* Two conjunctions of two variables in 1..64, over disjoint variables,
   with one hash.  The hash folds children's hashes as a 31-polynomial,
   so such pairs exist; none would leave the memo's equality untested. *)
let colliding_pair () =
  let seen = Hashtbl.create 4096 and found = ref None in
  for a = 1 to 64 do
    for b = a + 1 to 64 do
      let g = Formula.and_ [ Formula.var a; Formula.var b ] in
      match Hashtbl.find_opt seen (Formula.hash g) with
      | Some h when Vset.disjoint (Formula.vars g) (Formula.vars h) ->
        if !found = None then found := Some (h, g)
      | Some _ -> ()
      | None -> Hashtbl.add seen (Formula.hash g) g
    done
  done;
  !found

let old_search_tests =
  [ dtest ~seed:21 ~count:60
      "search: annotated nodes = plain trees (vectors, stats, circuits)"
      arb_search_input
      (fun inst -> same_search (search_input inst));
    Alcotest.test_case "search: formulas of one hash are two memo entries"
      `Quick (fun () ->
        match colliding_pair () with
        | None -> Alcotest.fail "no two-variable conjunctions share a hash"
        | Some (g, h) ->
          let x = Formula.var 65 in
          List.iter
            (fun f ->
              Alcotest.(check bool) (Formula.to_string f) true (same_search f))
            [ Formula.or_ [ g; h ];
              Formula.and_ [ Formula.or_ [ g; x ]; Formula.or_ [ h; x ] ] ]) ]

(* ------------------------------------------------------------------ *)
(* The safe plan's components, as the plan grouped them on query
   variable names before it called [Vset.components]: the same merge on
   sorted string lists, which [Old_plan] keeps.  Over ids assigned in
   name order, the one merge must give the same groups, scopes and
   members (==), in the same order. *)
module Old_components = struct
  let atom_vars = Old_plan.atom_vars
  let components = Old_plan.components
end

(* Residual atom lists: up to eight atoms of arity 0..3 over five
   variable names and two constants, so atoms share, miss and repeat
   variables, and some are ground. *)
let arb_residual =
  let open QCheck.Gen in
  let term =
    frequency
      [ (4, map (fun i -> Cq.V [| "x"; "y"; "z"; "u"; "w" |].(i)) (int_bound 4));
        (1, map (fun c -> Cq.C (Value.int c)) (int_range 1 2)) ]
  in
  let atom i =
    map (Cq.atom (Printf.sprintf "R%d" i)) (list_size (int_range 0 3) term)
  in
  QCheck.make
    ~print:(fun atoms -> Cq.to_string (Cq.make atoms))
    (int_range 0 8 >>= fun k -> flatten_l (List.init k atom))

let same_components atoms =
  let names =
    List.sort_uniq compare (List.concat_map Old_components.atom_vars atoms)
  in
  let id x =
    let rec go i = function
      | y :: rest -> if y = x then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 names
  in
  let ids a = Vset.of_list (List.map id (Old_components.atom_vars a)) in
  let name i = List.nth names i in
  let old = Old_components.components atoms
  and groups = Vset.components ~vars:ids atoms in
  List.compare_lengths old groups = 0
  && List.for_all2
       (fun (vs, members) (scope, members') ->
         vs = List.map name (Vset.elements scope)
         && List.compare_lengths members members' = 0
         && List.for_all2 ( == ) members members')
       old groups

(* ------------------------------------------------------------------ *)
(* OBDD counting as the manager did it before it counted [to_circuit]'s
   circuit: the pass over the nodes that bridges level gaps by binomial
   extension, less its memo table, with the same three rejections in the
   same order.  A reduced node tests the first variable of its support
   in the order, and its children are its two restrictions. *)
module Old_obdd_count = struct
  let count_by_size ~order m ~vars t =
    let level v =
      match List.find_index (( = ) v) order with
      | Some l -> l
      | None -> invalid_arg "Obdd: variable not in manager order"
    in
    if not (Vset.subset (Obdd.support t) (Vset.of_list vars)) then
      invalid_arg "Obdd.count_by_size: universe misses support variables";
    let levels = List.sort compare (List.map level vars) in
    let n = List.length levels in
    if List.length (List.sort_uniq compare levels) <> n then
      invalid_arg "Obdd.count_by_size: duplicate universe variables";
    let after lvl = List.length (List.filter (fun l -> l >= lvl) levels) in
    let top t =
      Vset.fold
        (fun v acc ->
          match acc with
          | Some w when level w < level v -> acc
          | _ -> Some v)
        (Obdd.support t) None
    in
    let scope t = match top t with None -> 0 | Some v -> after (level v) in
    let rec own t =
      match top t with
      | None ->
        if Obdd.is_true t then Kvec.const_true ~n:0 else Kvec.const_false ~n:0
      | Some v ->
        let below = after (level v + 1) in
        let child b =
          let c = Obdd.restrict m v b t in
          Kvec.extend (own c) ~extra:(below - scope c)
        in
        Kvec.add
          (Kvec.conv Kvec.singleton_false (child false))
          (Kvec.conv Kvec.singleton_true (child true))
    in
    Kvec.extend (own t) ~extra:(n - scope t)
end

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* A formula over 1..6 under a random order of 1..8, counted over its
   variables, the extra 7 and 8 that some universes hold, in random
   order; then the universe without a support variable, with a repeat,
   and with 9, which the order does not hold. *)
let obdd_counts_agree (f, seed) =
  let st = Random.State.make [| seed |] in
  let shuffle l = QCheck.Gen.generate1 ~rand:st (QCheck.Gen.shuffle_l l) in
  let order = shuffle (universe 8) in
  let m = Obdd.create_manager ~order in
  let t = Obdd.of_formula m f in
  let extra = List.filter (fun _ -> Random.State.bool st) [ 7; 8 ] in
  let vars = shuffle (universe 6 @ extra) in
  let old vars () = Old_obdd_count.count_by_size ~order m ~vars t
  and now vars () = Obdd.count_by_size m ~vars t in
  let both_raise vars = raises (old vars) && raises (now vars) in
  Kvec.equal (old vars ()) (now vars ())
  && Bigint.equal (Kvec.total (old vars ())) (Obdd.count m ~vars t)
  && (Vset.is_empty (Obdd.support t)
      || both_raise
           (List.filter (( <> ) (Vset.min_elt (Obdd.support t))) vars))
  && both_raise (List.hd vars :: vars)
  && both_raise (9 :: vars)

let merge_tests =
  [ dtest ~seed:22 ~count:100
      "components: Vset.components over ids = the plan's string merge"
      arb_residual same_components;
    dtest ~seed:23 ~count:40 "obdd: counts through Count = the level-gap pass"
      (QCheck.pair (arb_formula ~nvars:6 ~depth:4) QCheck.(int_bound 1_000_000))
      obdd_counts_agree;
    Alcotest.test_case "per-n: factorial n = running product, n = 0..300"
      `Quick (fun () ->
        let product = ref Bigint.one in
        let expect =
          List.init 301 (fun n ->
              if n > 0 then product := Bigint.mul_int !product n;
              !product)
        in
        Alcotest.(check (list bigint)) "factorials" expect
          (List.init 301 Combi.factorial));
    Alcotest.test_case
      "per-n: Kvec.all = Combi.binomial rows, native exactly to n = 65"
      `Quick (fun () ->
        for n = 0 to 130 do
          let row = Array.init (n + 1) (Combi.binomial n) in
          (* [Kvec.make] takes the canonical tier and [Kvec.equal] never
             equates two tiers, so this pins the tier too. *)
          Alcotest.(check bool)
            (Printf.sprintf "row %d" n) true
            (Kvec.equal (Kvec.all ~n) (Kvec.make ~n row));
          Alcotest.(check bool)
            (Printf.sprintf "row %d fits a native int" n) (n <= 65)
            (Bigint.leq row.(n / 2) (Bigint.of_int max_int))
        done) ]

(* ------------------------------------------------------------------ *)
(* [Vset] before it became a sparse bitset: the AVL set, whose order
   every sorted clause list in the library follows.  Each kept function
   must agree with it, in order as well as in value. *)
module Old_vset = Set.Make (Int)

(* Id lists: mostly 0..200, which spans four 62-id blocks, some sparse
   ids up to 10^9, and the empty list. *)
let gen_ids =
  let open QCheck.Gen in
  let id = frequency [ (6, int_bound 200); (1, int_bound 1_000_000_000) ] in
  frequency [ (1, return []); (8, list_size (int_bound 14) id) ]

(* Sets whose sorted elements share prefixes, so [compare] meets equal
   blocks, a proper prefix and a first difference in every position:
   each set after the first may be an earlier one with ids added or
   removed. *)
let arb_id_sets =
  let open QCheck.Gen in
  let next sets =
    if sets = [] then gen_ids
    else
      frequency
        [ (1, gen_ids);
          ( 3,
            oneofl sets >>= fun base ->
            gen_ids >>= fun extra ->
            bool >|= fun drop ->
            let base = if drop then List.filter (fun v -> v mod 3 <> 0) base else base in
            base @ List.filteri (fun i _ -> i < 2) extra ) ]
  in
  let rec build k sets =
    if k = 0 then return (List.rev sets)
    else next sets >>= fun ids -> build (k - 1) (ids :: sets)
  in
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    (int_range 1 8 >>= fun k -> build k [])

let sign c = Stdlib.compare c 0

let in_order iter s =
  let seen = ref [] in
  iter (fun v -> seen := v :: !seen) s;
  List.rev !seen

(* One set against its AVL twin: ids, the three traversal orders, the
   extremes, the size and membership of every probe (negative ids
   included). *)
let same_set ~probes s o =
  Vset.elements s = Old_vset.elements o
  && Vset.fold (fun v acc -> v :: acc) s [] = Old_vset.fold (fun v acc -> v :: acc) o []
  && in_order Vset.iter s = in_order Old_vset.iter o
  && Vset.min_elt_opt s = Old_vset.min_elt_opt o
  && Vset.max_elt_opt s = Old_vset.max_elt_opt o
  && Vset.cardinal s = Old_vset.cardinal o
  && Vset.is_empty s = Old_vset.is_empty o
  && List.for_all (fun v -> Vset.mem v s = Old_vset.mem v o) probes

(* Two sets against their twins; [union] must also return an argument
   that holds the other as it is. *)
let same_pair ~probes (a, oa) (b, ob) =
  let u = Vset.union a b in
  sign (Vset.compare a b) = sign (Old_vset.compare oa ob)
  && Vset.equal a b = Old_vset.equal oa ob
  && Vset.subset a b = Old_vset.subset oa ob
  && Vset.disjoint a b = Old_vset.disjoint oa ob
  && same_set ~probes u (Old_vset.union oa ob)
  && same_set ~probes (Vset.inter a b) (Old_vset.inter oa ob)
  && same_set ~probes (Vset.diff a b) (Old_vset.diff oa ob)
  && ((not (Old_vset.subset ob oa)) || u == a)
  && (Old_vset.subset ob oa || (not (Old_vset.subset oa ob)) || u == b)

(* An update's result holds the AVL result's ids, in canonical form:
   structurally equal to the set built from those ids. *)
let same_update s o =
  let fresh = Vset.of_list (Old_vset.elements o) in
  Vset.elements s = Old_vset.elements o && s = fresh

let twins ids = (Vset.of_list ids, Old_vset.of_list ids)

let bitset_agrees id_lists =
  let sets = List.map twins id_lists in
  let probes = -1 :: 0 :: 61 :: 62 :: 63 :: List.concat id_lists in
  let update (s, o) v =
    let keep x = x mod 3 <> v mod 3 in
    same_update (Vset.add v s) (Old_vset.add v o)
    && same_update (Vset.remove v s) (Old_vset.remove v o)
    && same_update (Vset.singleton v) (Old_vset.singleton v)
    && same_update (Vset.filter keep s) (Old_vset.filter keep o)
  in
  List.for_all (fun (s, o) -> same_set ~probes s o) sets
  && List.for_all (fun a -> List.for_all (same_pair ~probes a) sets) sets
  && List.map Vset.elements (List.sort_uniq Vset.compare (List.map fst sets))
     = List.map Old_vset.elements
         (List.sort_uniq Old_vset.compare (List.map snd sets))
  && List.for_all
       (fun set ->
         List.for_all (update set) (List.filter (fun v -> v >= 0) probes))
       sets

(* [components] over the AVL set: the same merge. *)
let old_components ~vars xs =
  let merge groups x =
    let vs = vars x in
    let touching, rest =
      List.partition (fun (ws, _) -> not (Old_vset.disjoint vs ws)) groups
    in
    let vs' = List.fold_left (fun a (ws, _) -> Old_vset.union a ws) vs touching in
    (vs', x :: List.concat_map snd touching) :: rest
  in
  List.fold_left merge [] xs

(* Members of one to three ids in 0..200, so several groups form. *)
let arb_members =
  let open QCheck.Gen in
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    (list_size (int_bound 12) (list_size (int_range 1 3) (int_bound 200)))

let components_agree id_lists =
  let members = List.map twins id_lists in
  let now = Vset.components ~vars:fst members
  and old = old_components ~vars:snd members in
  List.compare_lengths now old = 0
  && List.for_all2
       (fun (scope, ms) (scope', ms') ->
         Vset.elements scope = Old_vset.elements scope'
         && List.compare_lengths ms ms' = 0
         && List.for_all2 ( == ) ms ms')
       now old

let words s = Obj.reachable_words (Obj.repr s)

let vset_tests =
  [ dtest ~seed:24 ~count:100 "vset: the bitset = Set.Make (Int), order included"
      arb_id_sets bitset_agrees;
    dtest ~seed:25 ~count:100 "vset: components = the AVL set's merge (==)"
      arb_members components_agree;
    dtest ~seed:26 ~count:100 "vset: a set of k ids takes at most 2k + 1 words"
      (QCheck.make ~print:QCheck.Print.(list int) gen_ids)
      (fun ids ->
        let s = Vset.of_list ids in
        words s <= (2 * Vset.cardinal s) + 1);
    Alcotest.test_case "vset: footprints of fixed sets" `Quick (fun () ->
        let range a b = List.init (b - a + 1) (fun i -> a + i) in
        List.iter
          (fun (name, ids, most) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s takes %d words, at most %d" name
                 (words (Vset.of_list ids)) most)
              true
              (words (Vset.of_list ids) <= most))
          [ ("{1, 10^9}", [ 1; 1_000_000_000 ], 8);
            ("{1..54}", range 1 54, 3);
            ("{1..80}", range 1 80, 5);
            ("{1..2560}", range 1 2560, 85) ]);
    Alcotest.test_case "vset: a negative id raises Invalid_argument" `Quick
      (fun () ->
        let raises f =
          match f () with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "add" true (raises (fun () -> Vset.add (-1) Vset.empty));
        Alcotest.(check bool) "singleton" true (raises (fun () -> Vset.singleton (-3)));
        Alcotest.(check bool) "of_list" true (raises (fun () -> Vset.of_list [ 2; -2 ]));
        Alcotest.(check bool) "mem" false (Vset.mem (-1) (Vset.of_list [ 0; 1 ]))) ]

let suite =
  counter_tests @ shap_tests @ reverse_tests @ backward_tests
  @ backward_edge_cases @ search_tests @ block_tests @ e2e_shape_tests
  @ join_tests @ chain_tests @ ledger_tests @ backward_quotient_cases
  @ plan_tests @ old_search_tests @ merge_tests @ vset_tests

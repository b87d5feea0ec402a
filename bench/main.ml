(* Benchmark & reproduction harness.

   One section per experiment of DESIGN.md §4 (E1–E24): the paper's only
   table (Example 2) and only figure (the §5.2 commutative diagram) are
   reproduced exactly; every theorem-level claim gets a validation +
   scaling section whose rows are recorded in EXPERIMENTS.md.  A final
   section runs bechamel micro-benchmarks of the library's kernels.

   Run with:  dune exec bench/main.exe            (full, a few minutes)
              dune exec bench/main.exe -- quick   (skips the slowest rows) *)

let quick =
  Array.length Sys.argv > 1 && Sys.argv.(1) = "quick"

let section id title =
  Printf.printf "\n%s\n=== %-3s %s\n%s\n" (String.make 78 '=') id title
    (String.make 78 '=')

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let row fmt = Printf.printf fmt

let check label ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") label;
  if not ok then exit 1

let shap_equal a b =
  List.for_all2
    (fun (i, x) (j, y) -> i = j && Rat.equal x y)
    (List.sort compare a) (List.sort compare b)

let rec random_formula st ~nvars ~depth =
  if depth <= 0 then Formula.var (1 + Random.State.int st nvars)
  else begin
    match Random.State.int st 8 with
    | 0 | 1 -> Formula.var (1 + Random.State.int st nvars)
    | 2 -> Formula.not_ (random_formula st ~nvars ~depth:(depth - 1))
    | 3 | 4 ->
      Formula.conj2
        (random_formula st ~nvars ~depth:(depth - 1))
        (random_formula st ~nvars ~depth:(depth - 1))
    | _ ->
      Formula.disj2
        (random_formula st ~nvars ~depth:(depth - 1))
        (random_formula st ~nvars ~depth:(depth - 1))
  end

(* A random formula guaranteed to mention all of 1..nvars. *)
let random_full_formula st ~nvars ~depth =
  let rec retry k =
    let f = random_formula st ~nvars ~depth in
    if Vset.cardinal (Formula.vars f) = nvars then f
    else if k > 200 then
      (* pad: conjoin a tautology on the missing variables *)
      Formula.and_
        (f
         :: List.filter_map
           (fun v ->
              if Vset.mem v (Formula.vars f) then None
              else
                Some (Formula.disj2 (Formula.var v)
                        (Formula.not_ (Formula.var v))))
           (List.init nvars succ))
    else retry (k + 1)
  in
  retry 0

(* ------------------------------------------------------------------ *)
(* E1: the Example 2 table *)

let e1 () =
  section "E1" "Example 2 table: permutation marginals and Shapley values";
  let f = Parser.formula_of_string_exn "x1 & (x2 | !x3)" in
  let vars = [ 1; 2; 3 ] in
  row "  F = %s\n\n" (Formula.to_string f);
  row "  %-12s %4s %4s %4s\n" "permutation" "i=1" "i=2" "i=3";
  List.iter
    (fun (pi, cols) ->
       row "  (%s)    %4d %4d %4d\n"
         (String.concat ", " (List.map string_of_int pi))
         (List.nth cols 0) (List.nth cols 1) (List.nth cols 2))
    (Naive.permutation_table ~vars f);
  let shap = Naive.shap_permutations ~vars f in
  row "\n  Shapley values: %s\n"
    (String.concat ", "
       (List.map (fun (i, v) -> Printf.sprintf "x%d = %s" i (Rat.to_string v)) shap));
  check "matches the paper: (5/6, 2/6, -1/6)"
    (shap_equal shap
       [ (1, Rat.of_ints 5 6); (2, Rat.of_ints 2 6); (3, Rat.of_ints (-1) 6) ]);
  check "Example 4: same values via Eq. (2)"
    (shap_equal shap (Naive.shap_subsets ~vars f));
  check "Example 6 / Prop. 5: values sum to F(1) - F(0) = 1"
    (Rat.equal (Naive.shap_sum shap) Rat.one)

(* ------------------------------------------------------------------ *)
(* E2: the commutative diagram of §5.2 *)

let e2 () =
  section "E2" "Commutative diagram: stretching = OR-substitution at lineage level";
  let trials = if quick then 10 else 40 in
  let ok = ref 0 in
  let st = Random.State.make [| 42 |] in
  for seed = 1 to trials do
    let a = 1 + Random.State.int st 3 and b = 1 + Random.State.int st 3 in
    let inst = Bipartite.random ~a ~b ~density:0.6 ~seed in
    let db, q = Hardness.encode inst in
    let widths v = (v + seed) mod 3 in
    let is_endo r = Database.kind_of db r = Database.Endogenous in
    let qt, _ = Stretch.stretch_query ~is_endogenous:is_endo q in
    let dbt, blocks = Stretch.or_substituted_db ~widths db in
    let f_sub =
      Subst.apply
        (fun v ->
           match List.assoc_opt v blocks with
           | Some zs -> Formula.or_ (List.map Formula.var zs)
           | None -> Formula.var v)
        (Lineage.lineage_formula db q)
    in
    if Semantics.equivalent f_sub (Lineage.lineage_formula dbt qt) then incr ok
  done;
  row "  random Q0 databases checked: %d, diagram commuted on: %d\n" trials !ok;
  check "diagram commutes on every instance" (!ok = trials);
  (* Lemma 12 round trip through Claim 5.2's collapse *)
  let db, q = Hardness.encode (Bipartite.make ~a:2 ~b:2 [ (0, 0); (1, 1); (0, 1) ]) in
  let db', blocks = Stretch.or_substituted_q0_db ~widths:(fun v -> 1 + (v mod 2)) db in
  let f_sub =
    Subst.apply
      (fun v ->
         match List.assoc_opt v blocks with
         | Some zs -> Formula.or_ (List.map Formula.var zs)
         | None -> Formula.var v)
      (Lineage.lineage_formula db q)
  in
  check "Claim 5.2: OR-substituted lineage realized inside C_Q0"
    (Semantics.equivalent f_sub (Lineage.lineage_formula db' q))

(* ------------------------------------------------------------------ *)
(* E3: Lemma 3.2 — Shapley from fixed-size counts *)

let e3 () =
  section "E3" "Lemma 3.2: Shap from a #_* oracle (agreement + oracle calls)";
  let st = Random.State.make [| 7 |] in
  row "  %-4s %-10s %-14s %-10s\n" "n" "#oracle" "agree" "time(s)";
  List.iter
    (fun n ->
       let f = random_full_formula st ~nvars:n ~depth:(n - 1) in
       let vars = List.init n succ in
       let calls = ref 0 in
       let oracle =
         Pipeline.{
           oracle_name = "dpll-counting";
           count =
             (fun ~vars f ->
                incr calls;
                Dpll.count_universe ~vars f);
         }
       in
       let via, t =
         time (fun () -> Pipeline.shap_via_count_oracle ~oracle ~vars f)
       in
       let reference = Naive.shap_subsets ~vars f in
       row "  %-4d %-10d %-14b %-10.4f\n" n !calls (shap_equal via reference) t;
       if not (shap_equal via reference) then exit 1)
    [ 2; 3; 4; 5; 6 ];
  row "  (oracle calls grow as (n+1)^2 + ... — polynomial, per Theorem 3.1)\n"

(* ------------------------------------------------------------------ *)
(* E4: Lemma 3.3 / Claim 3.5 + solver ablation *)

let e4 () =
  section "E4" "Lemma 3.3: #_* from a # oracle via the 2^l-1 Vandermonde system";
  let st = Random.State.make [| 11 |] in
  row "  %-4s %-8s %-12s %-12s %-12s\n" "n" "agree" "claim3.5" "interp(s)"
    "gauss(s)";
  List.iter
    (fun n ->
       let f = random_full_formula st ~nvars:n ~depth:n in
       let vars = List.init n succ in
       let kv_ref = Brute.count_by_size ~vars f in
       let kv =
         Pipeline.kcounts_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
           ~vars f
       in
       (* Claim 3.5 at l = 2 directly *)
       let universe = Vset.of_list vars in
       let g, blocks = Subst.uniform_or ~universe ~l:2 f in
       let lhs = Dpll.count_universe ~vars:(List.concat_map snd blocks) g in
       let claim35 =
         Bigint.equal lhs (Kvec.weighted_sum kv_ref (Bigint.two_pow_minus_one 2))
       in
       (* ablation: interpolation vs Gaussian elimination on the system *)
       let points = Reductions.or_points ~count:(n + 1) in
       let values =
         Array.init (n + 1) (fun i ->
             Rat.of_bigint
               (Kvec.weighted_sum kv_ref
                  (Bigint.two_pow_minus_one (i + 1))))
       in
       let _, t_interp =
         time (fun () -> Linalg.vandermonde_solve ~points ~values)
       in
       let matrix = Linalg.vandermonde_matrix points ~cols:(n + 1) in
       let _, t_gauss = time (fun () -> Linalg.gauss_solve matrix values) in
       row "  %-4d %-8b %-12b %-12.5f %-12.5f\n" n (Kvec.equal kv kv_ref)
         claim35 t_interp t_gauss;
       if not (Kvec.equal kv kv_ref && claim35) then exit 1)
    (if quick then [ 3; 5; 7 ] else [ 3; 5; 7; 9; 11; 13 ]);
  row "  (Newton interpolation solves the Vandermonde system in O(n^2) exact\n";
  row "   ops; Gaussian elimination is the O(n^3) ablation baseline)\n"

(* ------------------------------------------------------------------ *)
(* E5: Lemma 3.4 — counts from a Shapley oracle *)

let e5 () =
  section "E5" "Lemma 3.4 (repaired): # from a Shap oracle, n^2 calls";
  let st = Random.State.make [| 13 |] in
  row "  %-4s %-10s %-8s %-10s\n" "n" "#oracle" "agree" "time(s)";
  List.iter
    (fun n ->
       let f = random_full_formula st ~nvars:n ~depth:n in
       let vars = List.init n succ in
       let calls = ref 0 in
       let oracle =
         Pipeline.{
           shap_name = "circuit-shapley";
           shap =
             (fun ~vars f ->
                incr calls;
                Circuit_shapley.shap_direct ~vars (Compile.compile f));
         }
       in
       let via, t =
         time (fun () -> Pipeline.count_via_shap_oracle ~oracle ~vars f)
       in
       let reference = Brute.count ~vars f in
       row "  %-4d %-10d %-8b %-10.4f\n" n !calls (Bigint.equal via reference) t;
       if not (Bigint.equal via reference) then exit 1)
    [ 2; 3; 4; 5 ];
  row "  (weights use the repaired Lemma 3.4 system; see DESIGN.md section 2a)\n"

(* ------------------------------------------------------------------ *)
(* E6: Corollary 7 round trip *)

let e6 () =
  section "E6" "Corollary 7: # -> Shap -> # round trip on OR-closed classes";
  let st = Random.State.make [| 17 |] in
  let trials = if quick then 5 else 12 in
  let ok = ref 0 in
  let _, t =
    time (fun () ->
        for _ = 1 to trials do
          let n = 2 + Random.State.int st 2 in
          let f = random_full_formula st ~nvars:n ~depth:3 in
          let vars = List.init n succ in
          if Bigint.equal
              (Pipeline.roundtrip_count ~vars f)
              (Brute.count ~vars f)
          then incr ok
        done)
  in
  row "  random functions: %d, round trips correct: %d (%.2fs total)\n" trials
    !ok t;
  check "every round trip exact" (!ok = trials)

(* ------------------------------------------------------------------ *)
(* E7: Lemma 9 — OR-substitution cost on circuits *)

let e7 () =
  section "E7" "Lemma 9: circuit OR-substitution is O(|G| + k*l)";
  (* a chain formula compiled to a mid-sized circuit *)
  let n = 12 in
  let f =
    Formula.and_
      (List.init (n - 1) (fun i ->
           Formula.disj2
             (Formula.not_ (Formula.var (i + 1)))
             (Formula.var (i + 2))))
  in
  let g = Compile.compile f in
  row "  base circuit: %d gates, %d variables\n" (Circuit.size g) n;
  row "  %-6s %-10s %-12s %-12s %-10s\n" "l" "gates" "delta/l" "time(s)"
    "count-ok";
  let base = Circuit.size g in
  List.iter
    (fun l ->
       let (g', _), t = time (fun () -> Or_subst.uniform_or ~l g) in
       (* Cross-check the substituted circuit's count against DPLL on its
          unfolded formula (the exhaustive determinism check is infeasible
          beyond ~14-variable gate scopes; l=1 is covered by the tests). *)
       let count_ok =
         if l <= 4 then
           Printf.sprintf "%b"
             (Bigint.equal (Count.count_circuit g')
                (Dpll.count (Circuit.to_formula g')))
         else "-"
       in
       row "  %-6d %-10d %-12.1f %-12.5f %-10s\n" l (Circuit.size g')
         (float_of_int (Circuit.size g' - base) /. float_of_int l)
         t count_ok)
    [ 1; 2; 4; 8; 16; 32; 64 ];
  row "  (delta/l stabilizes: growth is linear in l, as Lemma 9 states)\n";
  (* The search absorbs the substitution itself: it decides once on each
     block of l fresh variables, so compiling the formula F^(l) builds
     Lemma 9's gadget without the circuit-level rewrite. *)
  row "  search-compiled F^(l) of the same chain:\n";
  row "  %-6s %-10s %-12s %-12s\n" "l" "gates" "delta/(n*l)" "time(s)";
  let within =
    List.for_all
      (fun l ->
         let fl, _ = Subst.uniform_or ~l f in
         let g', t = time (fun () -> Compile.compile fl) in
         let delta = Circuit.size g' - base in
         row "  %-6d %-10d %-12.2f %-12.5f\n" l (Circuit.size g')
           (float_of_int delta /. float_of_int (n * l))
           t;
         delta <= 3 * n * l)
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  check "compiled F^(l) within |C(F)| + 3*n*l gates" within

(* ------------------------------------------------------------------ *)
(* E8: Theorem 4.1 — polynomial Shapley on circuits vs the definition *)

let e8 () =
  section "E8" "Theorem 4.1: Shapley on d-D circuits, polynomial vs exponential";
  row "  %-4s %-8s %-14s %-14s %-14s\n" "n" "gates" "subsets-2^n(s)"
    "circuit(s)" "via-reduction(s)";
  let sizes = if quick then [ 6; 8; 10; 12 ] else [ 6; 8; 10; 12; 14; 16; 18 ] in
  List.iter
    (fun n ->
       (* read-once-ish chain: compiles small, so the contrast is honest *)
       let f =
         Formula.and_
           (List.init (n / 2) (fun i ->
                Formula.disj2
                  (Formula.var ((2 * i) + 1))
                  (Formula.var ((2 * i) + 2))))
       in
       let vars = List.init n succ in
       let c = Compile.compile f in
       let naive_t =
         if n <= 14 then begin
           let _, t = time (fun () -> Naive.shap_subsets ~vars f) in
           Printf.sprintf "%.4f" t
         end
         else "(skipped)"
       in
       let shap_c, t_c = time (fun () -> Circuit_shapley.shap_direct ~vars c) in
       let t_r =
         if n <= 12 then begin
           let _, t = time (fun () -> Circuit_shapley.shap_via_reduction ~vars c) in
           Printf.sprintf "%.4f" t
         end
         else "(skipped)"
       in
       ignore shap_c;
       row "  %-4d %-8d %-14s %-14.4f %-14s\n" n (Circuit.size c) naive_t t_c t_r)
    sizes;
  (* correctness spot check *)
  let f = Parser.formula_of_string_exn "x1 & x2 | !x1 & x3 | x4" in
  let vars = [ 1; 2; 3; 4 ] in
  let c = Compile.compile f in
  check "circuit results match the definition"
    (shap_equal (Naive.shap_subsets ~vars f) (Circuit_shapley.shap_direct ~vars c));
  check "reduction route matches direct route"
    (shap_equal
       (Circuit_shapley.shap_direct ~vars c)
       (Circuit_shapley.shap_via_reduction ~vars c))

(* ------------------------------------------------------------------ *)
(* E9: Theorem 5.1 tractable side — hierarchical scaling *)

let e9 () =
  section "E9" "Theorem 5.1 (tractable): hierarchical queries scale polynomially";
  let q = Db_parser.parse_query "R(x), S(x, y)" in
  row "  query: %s\n" (Cq.to_string q);
  row "  %-8s %-8s %-10s %-14s %-14s\n" "tuples" "vars" "gates" "safe-plan(s)"
    "brute(s)";
  let sizes = if quick then [ 8; 16; 24 ] else [ 8; 16; 24; 32; 48; 64 ] in
  List.iter
    (fun size ->
       let st = Random.State.make [| size |] in
       let db = Database.create () in
       Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
       Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
       let xs = size / 4 in
       for i = 1 to xs do
         ignore (Database.insert db "R" [| Value.int i |])
       done;
       let inserted = ref 0 in
       while !inserted < size - xs do
         let i = 1 + Random.State.int st xs in
         let j = 1 + Random.State.int st size in
         if not (Database.mem db "S" [| Value.int i; Value.int j |]) then begin
           ignore (Database.insert db "S" [| Value.int i; Value.int j |]);
           incr inserted
         end
       done;
       let nvars = Vset.cardinal (Database.lineage_vars db) in
       let c = Safe_plan.lineage_circuit db q in
       let _, t_safe = time (fun () -> Safe_plan.shapley db q) in
       let brute_t =
         if nvars <= 20 then begin
           let reference, t = time (fun () -> Dichotomy.shapley_brute db q) in
           let got = Safe_plan.shapley db q in
           if not (shap_equal reference got) then exit 1;
           Printf.sprintf "%.4f" t
         end
         else "(skipped)"
       in
       row "  %-8d %-8d %-10d %-14.4f %-14s\n" size nvars (Circuit.size c)
         t_safe brute_t)
    sizes;
  row "  (safe-plan time grows polynomially with the database;\n";
  row "   the 2^n reference explodes past ~20 tuples)\n"

(* ------------------------------------------------------------------ *)
(* E10: Theorem 5.1 hard side — bipartite DNF through the Shapley oracle *)

let e10 () =
  section "E10" "Theorem 5.1 (hard): #bipartite-DNF via a Q0 Shapley oracle";
  row "  %-10s %-8s %-12s %-10s %-12s\n" "a+b" "edges" "#F" "calls" "time(s)";
  let insts =
    if quick then [ (2, 2, 3) ] else [ (2, 2, 3); (2, 3, 4); (3, 3, 5) ]
  in
  List.iter
    (fun (a, b, seed) ->
       let inst = Bipartite.random ~a ~b ~density:0.6 ~seed in
       let direct = Bipartite.count inst in
       let via, t =
         time (fun () ->
             Hardness.count_via_q0_shapley ~oracle:Hardness.reference_oracle
               inst)
       in
       row "  %-10s %-8d %-12s %-10d %-12.3f\n"
         (Printf.sprintf "%d+%d" a b)
         (List.length inst.Bipartite.edges)
         (Bigint.to_string direct)
         (Hardness.oracle_calls inst) t;
       if not (Bigint.equal via direct) then exit 1)
    insts;
  check "oracle-derived counts exact on all instances" true;
  (* the baseline counter is exponential in the left part *)
  row "\n  baseline #bipartite-DNF counter (exponential in min side):\n";
  row "  %-6s %-12s %-12s\n" "a=b" "edges" "time(s)";
  List.iter
    (fun a ->
       let inst = Bipartite.random ~a ~b:a ~density:0.3 ~seed:a in
       let _, t = time (fun () -> Bipartite.count inst) in
       row "  %-6d %-12d %-12.4f\n" a (List.length inst.Bipartite.edges) t)
    (if quick then [ 8; 12; 16 ] else [ 8; 12; 16; 18; 20 ])

(* ------------------------------------------------------------------ *)
(* E11: Claim 3.7 — AND-substitutions *)

let e11 () =
  section "E11" "Claim 3.7: the AND-substitution variant";
  let st = Random.State.make [| 23 |] in
  row "  %-4s %-8s\n" "n" "agree";
  List.iter
    (fun n ->
       let f = random_full_formula st ~nvars:n ~depth:n in
       let vars = List.init n succ in
       let universe = Vset.of_list vars in
       let kv =
         Reductions.kcounts_via_counting_and ~n ~count_subst:(fun ~l ->
             let g, blocks = Subst.uniform_and ~universe ~l f in
             Dpll.count_universe ~vars:(List.concat_map snd blocks) g)
       in
       let ok = Kvec.equal kv (Brute.count_by_size ~vars f) in
       row "  %-4d %-8b\n" n ok;
       if not ok then exit 1)
    [ 2; 3; 4; 5; 6 ];
  check "AND-substituted reduction recovers #_* exactly" true

(* ------------------------------------------------------------------ *)
(* E12: the identity gallery *)

let e12 () =
  section "E12" "Identities: Prop. 3, Prop. 5, Claims 3.5/3.6/3.7, Eq. (7)/(8)";
  let st = Random.State.make [| 29 |] in
  let trials = if quick then 15 else 50 in
  let counters = Hashtbl.create 8 in
  let bump k ok =
    let p, t = Option.value ~default:(0, 0) (Hashtbl.find_opt counters k) in
    Hashtbl.replace counters k ((p + if ok then 1 else 0), t + 1)
  in
  for _ = 1 to trials do
    let n = 2 + Random.State.int st 3 in
    let f = random_full_formula st ~nvars:n ~depth:3 in
    let vars = List.init n succ in
    bump "Prop. 3 (Eq.1 = Eq.2)" (Identities.prop3 ~vars f);
    bump "Prop. 5 (efficiency)" (Identities.prop5 ~vars f);
    bump "Claim 3.5 (l=2)" (Identities.claim35 ~l:2 ~vars f);
    bump "Claim 3.6" (Identities.claim36 ~vars f);
    bump "Claim 3.7 (l=2)" (Identities.claim37 ~l:2 ~vars f);
    bump "Eq. (7)" (Identities.eq7 ~vars f);
    bump "Eq. (8)" (Identities.eq8 ~vars f)
  done;
  Hashtbl.iter
    (fun k (p, t) ->
       row "  %-26s %d/%d\n" k p t;
       if p <> t then exit 1)
    counters;
  (* the Lemma 3.4 repair, pinned *)
  let f = Parser.formula_of_string_exn "x1 & x2" in
  let universe = Vset.of_list [ 1; 2 ] in
  let g, blocks =
    Subst.or_subst ~universe ~widths:(fun v -> if v = 1 then 1 else 2) f
  in
  let z = List.hd (List.assoc 1 blocks) in
  let gvars = List.concat_map snd blocks in
  let truth = List.assoc z (Naive.shap_subsets ~vars:gvars g) in
  row "  Lemma 3.4 witness: Shap(F^(2,1), Z_1) = %s " (Rat.to_string truth);
  row "(paper's displayed formula gives 3/2; repaired weight gives %s)\n"
    (Rat.to_string (Reductions.lemma34_weight ~n:2 ~l:2 ~j:1));
  check "repaired Lemma 3.4 weight matches the true Shapley value"
    (Rat.equal truth (Reductions.lemma34_weight ~n:2 ~l:2 ~j:1))

(* ------------------------------------------------------------------ *)
(* E13: tractable counting classes feed the pipeline *)

let e13 () =
  section "E13" "DPLL with decomposition: read-once classes stay polynomial";
  row "  %-6s %-10s %-14s %-16s\n" "vars" "branches" "dpll-count(s)"
    "shap-pipeline(s)";
  let sizes = if quick then [ 10; 20 ] else [ 10; 20; 30; 40 ] in
  List.iter
    (fun half ->
       (* (x1|x2) & (x3|x4) & ... — read-once, beta-acyclic CNF *)
       let f =
         Formula.and_
           (List.init half (fun i ->
                Formula.disj2
                  (Formula.var ((2 * i) + 1))
                  (Formula.var ((2 * i) + 2))))
       in
       let n = 2 * half in
       let vars = List.init n succ in
       let (_, stats), t_count = time (fun () -> Dpll.count_with_stats f) in
       let t_shap =
         if half <= 20 then begin
           let _, t =
             time (fun () ->
                 Circuit_shapley.shap_direct ~vars (Compile.compile f))
           in
           Printf.sprintf "%.4f" t
         end
         else "(skipped)"
       in
       row "  %-6d %-10d %-14.4f %-16s\n" n stats.Dpll.branches t_count t_shap)
    sizes;
  row "  (component decomposition keeps branch counts linear — this is the\n";
  row "   mechanism behind the beta-acyclic tractability remark in Sec. 3)\n";
  (* Random 3-CNF at the satisfiability threshold: no component splits
     off early, and unit propagation, not decomposition, keeps the
     decisions few.  Counting and compilation run the same search. *)
  row "\n  random 3-CNF, m/n = 4.2, 3 seeded instances per row (totals):\n";
  row "  %-6s %-10s %-14s %-14s %-14s\n" "vars" "decisions" "propagations"
    "dpll-count(s)" "compile(s)";
  let st = Random.State.make [| 13 |] in
  let clause n =
    let rec pick vs =
      if List.length vs = 3 then vs
      else
        let v = 1 + Random.State.int st n in
        pick (if List.mem v vs then vs else v :: vs)
    in
    let pos, neg = List.partition (fun _ -> Random.State.bool st) (pick []) in
    Nf.clause ~pos ~neg
  in
  let agree = ref true in
  List.iter
    (fun n ->
       let dec = ref 0 and prop = ref 0 in
       let t_count = ref 0. and t_comp = ref 0. in
       for _ = 1 to 3 do
         let m = ((42 * n) + 5) / 10 in
         let f = Nf.cnf_to_formula (List.init m (fun _ -> clause n)) in
         let (c, stats), t = time (fun () -> Dpll.count_with_stats f) in
         let g, t' = time (fun () -> Compile.compile f) in
         let vars = Vset.elements (Formula.vars f) in
         dec := !dec + stats.Dpll.branches;
         prop := !prop + stats.Dpll.propagations;
         t_count := !t_count +. t;
         t_comp := !t_comp +. t';
         agree := !agree && Bigint.equal c (Count.count ~vars g)
       done;
       row "  %-6d %-10d %-14d %-14.4f %-14.4f\n" n !dec !prop !t_count !t_comp)
    (if quick then [ 20; 30 ] else [ 20; 30; 40 ]);
  check "compiled circuits count what the search counts" !agree

(* ------------------------------------------------------------------ *)
(* E14: the prior-work PQE route vs this paper's counting route, and the
   related-work score gallery (SHAP score, Banzhaf) *)

let e14 () =
  section "E14" "Routes & scores: PQE route [13] vs counting route; SHAP/Banzhaf";
  let st = Random.State.make [| 37 |] in
  row "  %-4s %-12s %-14s %-8s\n" "n" "via-PQE(s)" "via-count(s)" "agree";
  List.iter
    (fun n ->
       let f = random_full_formula st ~nvars:n ~depth:n in
       let vars = List.init n succ in
       let a, t_pqe =
         time (fun () ->
             Pipeline.shap_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
               ~vars f)
       in
       let b, t_cnt =
         time (fun () ->
             Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
               ~vars f)
       in
       row "  %-4d %-12.4f %-14.4f %-8b\n" n t_pqe t_cnt (shap_equal a b);
       if not (shap_equal a b) then exit 1)
    [ 3; 4; 5; 6; 7 ];
  (* the score gallery on Example 2 *)
  let f = Parser.formula_of_string_exn "x1 & (x2 | !x3)" in
  let vars = [ 1; 2; 3 ] in
  let c = Compile.compile f in
  let fmt_shap l =
    String.concat "  "
      (List.map (fun (i, v) -> Printf.sprintf "x%d=%s" i (Rat.to_string v)) l)
  in
  row "\n  score gallery on F = x1 & (x2 | !x3):\n";
  row "  %-26s %s\n" "Shapley (the paper):"
    (fmt_shap (Circuit_shapley.shap_direct ~vars c));
  row "  %-26s %s\n" "Banzhaf:"
    (fmt_shap (Power_indices.banzhaf_circuit ~vars c));
  row "  %-26s %s\n" "SHAP score (e=1, p=1/2):"
    (fmt_shap
       (Prob.shap_score ~weights:Prob.uniform_half ~entity:(fun _ -> true)
          ~vars c));
  row "  %-26s %s\n" "SHAP score (e=1, p=0):"
    (fmt_shap
       (Prob.shap_score ~weights:(fun _ -> Rat.zero) ~entity:(fun _ -> true)
          ~vars c));
  check "SHAP(e=1, p=0) coincides with the Shapley value"
    (shap_equal
       (Circuit_shapley.shap_direct ~vars c)
       (Prob.shap_score ~weights:(fun _ -> Rat.zero) ~entity:(fun _ -> true)
          ~vars c));
  check "SHAP(e=1, p=1/2) differs (the paper's caveat)"
    (not
       (shap_equal
          (Circuit_shapley.shap_direct ~vars c)
          (Prob.shap_score ~weights:Prob.uniform_half
             ~entity:(fun _ -> true) ~vars c)))

(* ------------------------------------------------------------------ *)
(* E15: Monte-Carlo approximation convergence *)

let e15 () =
  section "E15" "FPRAS-style approximation: permutation sampling convergence";
  let f = Parser.formula_of_string_exn "x1 & (x2 | !x3)" in
  let vars = [ 1; 2; 3 ] in
  let exact = Naive.shap_subsets ~vars f in
  row "  exact: %s\n" (String.concat "  "
    (List.map (fun (i, v) -> Printf.sprintf "x%d=%s" i (Rat.to_string v)) exact));
  row "  %-10s %-12s %-12s %-10s\n" "samples" "max-error" "half-width"
    "within-CI";
  List.iter
    (fun m ->
       let est =
         (Sampling.shap_estimate ~seed:11 ~max_samples:m
            ~ci:Convergence.Hoeffding ~vars f)
           .Sampling.estimates
       in
       let max_err =
         List.fold_left
           (fun acc e ->
              let truth = Rat.to_float (List.assoc e.Sampling.variable exact) in
              Float.max acc (Float.abs (e.Sampling.value -. truth)))
           0.0 est
       in
       let hw = (List.hd est).Sampling.half_width in
       row "  %-10d %-12.5f %-12.5f %-10b\n" m max_err hw (max_err <= hw))
    (if quick then [ 100; 10000 ] else [ 100; 1000; 10000; 100000 ]);
  row "  (error shrinks ~ 1/sqrt(m), always within the Hoeffding width —\n";
  row "   the FPRAS contrast the paper draws with the SHAP score [3])\n"

(* ------------------------------------------------------------------ *)
(* E16: tractable-structure recognizers *)

let e16 () =
  section "E16" "Structure recognition: read-once factoring & beta-acyclicity";
  let cases =
    [ ("x2 & (x1 | x3)   [as DNF]",
       [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ] ]);
      ("majority(x1,x2,x3)",
       [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ]; Vset.of_list [ 1; 3 ] ]);
      ("(x1&x2) | (x3&x4)",
       [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 3; 4 ] ]) ]
  in
  row "  read-once factoring:\n";
  List.iter
    (fun (name, d) ->
       match Read_once.factor d with
       | Some tree ->
         row "    %-24s read-once: %s\n" name
           (Formula.to_string (Read_once.tree_to_formula tree))
       | None -> row "    %-24s NOT read-once\n" name)
    cases;
  check "P4 DNF rejected"
    (not
       (Read_once.is_read_once
          [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ]; Vset.of_list [ 3; 4 ] ]));
  row "\n  beta-acyclicity (the Section 3 tractable-CNF class):\n";
  List.iter
    (fun (name, edges, expected) ->
       let got = Hypergraph.is_beta_acyclic edges in
       row "    %-34s %b\n" name got;
       if got <> expected then exit 1)
    [ ("chain {12}{23}{34}",
       [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ]; Vset.of_list [ 3; 4 ] ],
       true);
      ("triangle {12}{23}{13}",
       [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ]; Vset.of_list [ 1; 3 ] ],
       false);
      ("alpha-but-not-beta {123}{12}{23}{13}",
       [ Vset.of_list [ 1; 2; 3 ]; Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ];
         Vset.of_list [ 1; 3 ] ],
       false) ];
  (* read-once lineage goes straight to polynomial Shapley *)
  let d = [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 2; 3 ] ] in
  (match Read_once.factor d with
   | Some tree ->
     let f = Read_once.tree_to_formula tree in
     let vars = [ 1; 2; 3 ] in
     check "factored Shapley = definitional Shapley"
       (shap_equal
          (Circuit_shapley.shap_direct ~vars (Compile.compile f))
          (Naive.shap_subsets ~vars (Nf.pdnf_to_formula d)))
   | None -> exit 1)

(* ------------------------------------------------------------------ *)
(* E17: the Olteanu–Huang OBDD route and the variable-order ablation *)

let e17 () =
  section "E17" "OBDD route [27]: plan-derived order vs hostile order";
  let q = Db_parser.parse_query "R(x), S(x, y)" in
  row "  lineage shape: OR_i (r_i AND OR_j s_ij); query %s\n" (Cq.to_string q);
  row "  %-8s %-8s %-12s %-14s %-12s\n" "blocks" "vars" "good-order"
    "hostile-order" "ratio";
  List.iter
    (fun blocks ->
       let db = Database.create () in
       Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
       Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
       for i = 1 to blocks do
         ignore (Database.insert db "R" [| Value.int i |])
       done;
       for i = 1 to blocks do
         for j = 1 to 2 do
           ignore (Database.insert db "S" [| Value.int i; Value.int j |])
         done
       done;
       let _, good = Safe_plan.lineage_obdd db q in
       let all = Vset.elements (Database.lineage_vars db) in
       let r_vars, s_vars =
         List.partition (fun v -> fst (Database.tuple_of_var db v) = "R") all
       in
       let bad_m = Obdd.create_manager ~order:(r_vars @ s_vars) in
       let bad = Obdd.of_formula bad_m (Lineage.lineage_formula db q) in
       row "  %-8d %-8d %-12d %-14d %-12.1f\n" blocks (List.length all)
         (Obdd.size good) (Obdd.size bad)
         (float_of_int (Obdd.size bad) /. float_of_int (Obdd.size good));
       (* both orders count identically *)
       let m_good, good' = Safe_plan.lineage_obdd db q in
       if
         not
           (Bigint.equal
              (Obdd.count m_good ~vars:all good')
              (Obdd.count bad_m ~vars:all bad))
       then exit 1)
    (if quick then [ 4; 8 ] else [ 4; 6; 8; 10; 12 ]);
  row "  (plan order: linear OBDD; blocks interleaved hostilely: ~2^blocks —\n";
  row "   the compilation sensitivity [27] that Claim 5.3 builds on)\n"

(* ------------------------------------------------------------------ *)
(* E18: the Karp–Luby FPRAS [20] vs exact counting *)

let e18 () =
  section "E18" "Karp-Luby FPRAS [20] on bipartite DNF vs exact counting";
  row "  %-8s %-10s %-14s %-14s %-12s %-10s\n" "a=b" "edges" "exact"
    "estimate" "rel-error" "time(s)";
  List.iter
    (fun a ->
       let inst = Bipartite.random ~a ~b:a ~density:0.3 ~seed:(a * 7) in
       if inst.Bipartite.edges <> [] then begin
         let d = Bipartite.to_pdnf inst in
         let vars = Bipartite.all_vars inst in
         let exact = Bipartite.count inst in
         let est, t =
           time (fun () ->
               Karp_luby.count_samples ~seed:3
                 ~samples:(if quick then 20000 else 60000)
                 ~vars d)
         in
         let exact_f = Bigint.to_float exact in
         row "  %-8d %-10d %-14s %-14.0f %-12.4f %-10.3f\n" a
           (List.length inst.Bipartite.edges)
           (Bigint.to_string exact) est.Karp_luby.value
           (Float.abs (est.Karp_luby.value -. exact_f) /. exact_f)
           t
       end)
    (if quick then [ 6; 10 ] else [ 6; 10; 14; 18 ]);
  row "  (estimator time scales with samples x clauses, independent of 2^n;\n";
  row "   the exact counter is exponential in the smaller part — the FPRAS\n";
  row "   contrast [20] the paper cites for model counting)\n"

(* ------------------------------------------------------------------ *)
(* E19: negated atoms through the compilation solver *)

let e19 () =
  section "E19" "Negated atoms [29]: lineage with negative literals, compiled";
  let db = Database.create () in
  Database.declare db "Emp" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "Blocked" ~kind:Database.Endogenous ~arity:1;
  List.iter (fun i -> ignore (Database.insert db "Emp" [| Value.int i |])) [ 1; 2; 3 ];
  List.iter (fun i -> ignore (Database.insert db "Blocked" [| Value.int i |])) [ 1; 2 ];
  let q = Db_parser.parse_query "Emp(x), !Blocked(x)" in
  row "  query: %s\n" (Cq.to_string q);
  (match Dichotomy.classify q with
   | Dichotomy.Has_negation -> row "  classification: has negated atoms\n"
   | _ -> exit 1);
  let f = Lineage.lineage_formula db q in
  row "  lineage: %s\n" (Formula.to_string f);
  let shap, solver = Dichotomy.shapley db q in
  row "  solver: %s\n"
    (match solver with
     | Dichotomy.Compiled_dnf -> "compiled DNF"
     | Dichotomy.Safe_plan_circuit -> "safe plan (unexpected)");
  List.iter
    (fun (v, value) ->
       let rel, tup = Database.tuple_of_var db v in
       row "    %s(%s) = %s\n" rel
         (String.concat "," (List.map Value.to_string (Array.to_list tup)))
         (Rat.to_string value))
    shap;
  check "matches the exponential reference"
    (shap_equal shap (Dichotomy.shapley_brute db q));
  check "negative literals present in the lineage"
    (not (Nf.is_positive f))

(* ------------------------------------------------------------------ *)
(* E20: the --jobs domain pool *)

let e20 () =
  section "E20" "Parallel oracle fan-out: jobs in {1, 2, 4} agree exactly";
  let st = Random.State.make [| 41 |] in
  let n = if quick then 6 else 8 in
  let f = random_full_formula st ~nvars:n ~depth:n in
  let vars = List.init n succ in
  row "  host domains recommended: %d  (speedups need > 1 core; equality\n"
    (Domain.recommended_domain_count ());
  row "  holds regardless)\n";
  row "  %-6s %-12s %-12s %-8s\n" "jobs" "shap(s)" "kcounts(s)" "calls";
  let reference = ref None in
  let all_equal = ref true in
  List.iter
    (fun jobs ->
       Par.set_jobs jobs;
       let before = Obs.call_count () in
       let shap, t_shap =
         time (fun () ->
             Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
               ~vars f)
       in
       let kv, t_k =
         time (fun () ->
             Pipeline.kcounts_via_count_oracle
               ~oracle:Pipeline.dpll_count_oracle ~vars f)
       in
       let calls = Obs.call_count () - before in
       row "  %-6d %-12.4f %-12.4f %-8d\n" jobs t_shap t_k calls;
       match !reference with
       | None -> reference := Some (shap, kv, calls)
       | Some (shap0, kv0, calls0) ->
         if not (shap_equal shap shap0 && Kvec.equal kv kv0 && calls = calls0)
         then all_equal := false)
    [ 1; 2; 4 ];
  Par.set_jobs 1;
  check "results and oracle-call totals independent of jobs" !all_equal

(* ------------------------------------------------------------------ *)
(* E21: the serving cache — warm vs cold amortization *)

let e21 () =
  section "E21"
    "Serving cache: warm requests amortize compilation and counting";
  let db, q =
    Hardness.encode (Bipartite.random ~a:4 ~b:4 ~density:0.5 ~seed:21)
  in
  let cache = Cache.create () in
  (* Neither solver ledgers its Theorem 4.1 pass (one forward-backward
     sweep, inline), so every call counted below is the cached
     pipeline's circuit compilation: one on the cold pass, one after the
     insert, nothing on the warm ones. *)
  let fresh, _ = Dichotomy.shapley db q in
  let cold_before = Obs.call_count () in
  let (cold, _), t_cold =
    time (fun () -> Dichotomy.shapley_cached ~cache db q)
  in
  let cold = Cache.bindings cold in
  let cold_calls = Obs.call_count () - cold_before in
  let reps = 5 in
  let warm = ref [] in
  let warm_before = Obs.call_count () in
  let _, t_warm =
    time (fun () ->
        for _ = 1 to reps do
          warm :=
            Cache.bindings (fst (Dichotomy.shapley_cached ~cache db q))
            :: !warm
        done)
  in
  let warm_calls = Obs.call_count () - warm_before in
  row "  %-22s %-8s %-12s\n" "phase" "calls" "seconds";
  row "  %-22s %-8d %-12.4f\n" "cold (first request)" cold_calls t_cold;
  row "  %-22s %-8d %-12.4f\n"
    (Printf.sprintf "warm (%d repeats)" reps)
    warm_calls t_warm;
  check "cold cached answer = fresh solve" (shap_equal cold fresh);
  check "warm answers identical to cold"
    (List.for_all (fun r -> shap_equal r cold) !warm);
  check "warm path is oracle-free" (warm_calls = 0);
  check "cold pays at least 5x the warm oracle calls"
    (cold_calls > 0 && 5 * warm_calls <= cold_calls);
  (* Content keys: an endogenous insert moves the answer's key, so the
     next request re-pays compilation, and the answer stays exact. *)
  ignore (Database.insert db "R" [| Value.int 99 |]);
  let ins_before = Obs.call_count () in
  let (after_insert, _), t_ins =
    time (fun () -> Dichotomy.shapley_cached ~cache db q)
  in
  let ins_calls = Obs.call_count () - ins_before in
  row "  %-22s %-8d %-12.4f\n" "after insert" ins_calls t_ins;
  check "post-insert cached answer = fresh solve"
    (shap_equal (Cache.bindings after_insert) (fst (Dichotomy.shapley db q)));
  check "a mutated database re-pays compilation" (ins_calls > 0)

(* ------------------------------------------------------------------ *)
(* E22: the exact-arithmetic kernel in isolation — small (native tier),
   medium and large (limb tier, schoolbook vs Karatsuba) operand sizes,
   plus the Rat.add reduction chain the Shapley recombination leans on.
   Deterministic workloads; any regression here shows up before it is
   diluted by the end-to-end sections. *)

let e22 () =
  section "E22" "Arith kernel: mul/divmod/Rat.add at three operand sizes";
  let iters n = if quick then n / 4 else n in
  (* Small tier: an LCG-style chain whose values stay well inside the
     native range, so this measures the overflow-checked fast paths. *)
  let small_n = iters 400_000 in
  let small, t_small =
    time (fun () ->
        let acc = ref Bigint.zero in
        let x = ref (Bigint.of_int 1) in
        for _ = 1 to small_n do
          x := Bigint.add_int (Bigint.mul_int !x 48271) 11;
          x := snd (Bigint.divmod !x (Bigint.of_int 2147483647));
          acc := Bigint.add !acc !x
        done;
        !acc)
  in
  row "  %-34s %8d iters %10.4f s\n" "small: native mul/divmod chain"
    small_n t_small;
  (* Medium tier: the 120x80-digit pair the micro section also pins. *)
  let med_a = Bigint.of_string (String.make 120 '7') in
  let med_b = Bigint.of_string (String.make 80 '3') in
  let med_n = iters 20_000 in
  let _, t_med_mul =
    time (fun () ->
        for _ = 1 to med_n do ignore (Bigint.mul med_a med_b) done)
  in
  let _, t_med_div =
    time (fun () ->
        for _ = 1 to med_n do ignore (Bigint.divmod med_a med_b) done)
  in
  row "  %-34s %8d iters %10.4f s\n" "medium: mul 120x80 digits" med_n
    t_med_mul;
  row "  %-34s %8d iters %10.4f s\n" "medium: divmod 120/80 digits" med_n
    t_med_div;
  (* Large tier: thousands of digits, deep inside Karatsuba territory. *)
  let big_a = Bigint.of_string (String.init 2400 (fun i -> Char.chr (Char.code '1' + (i * 7 mod 9)))) in
  let big_b = Bigint.of_string (String.init 1600 (fun i -> Char.chr (Char.code '1' + (i * 5 mod 9)))) in
  let big_n = iters 400 in
  let _, t_big_mul =
    time (fun () ->
        for _ = 1 to big_n do ignore (Bigint.mul big_a big_b) done)
  in
  let _, t_big_div =
    time (fun () ->
        for _ = 1 to big_n do ignore (Bigint.divmod big_a big_b) done)
  in
  row "  %-34s %8d iters %10.4f s\n" "large: mul 2400x1600 digits" big_n
    t_big_mul;
  row "  %-34s %8d iters %10.4f s\n" "large: divmod 2400/1600 digits" big_n
    t_big_div;
  (* Rat.add chain: partial harmonic sums exercise the gcd-of-denominators
     reduction on steadily growing denominators. *)
  let harm_terms = 120 in
  let harm_reps = iters 200 in
  let h, t_rat =
    time (fun () ->
        let h = ref Rat.zero in
        for _ = 1 to harm_reps do
          h := Rat.zero;
          for k = 1 to harm_terms do
            h := Rat.add !h (Rat.make Bigint.one (Bigint.of_int k))
          done
        done;
        !h)
  in
  row "  %-34s %8d iters %10.4f s\n"
    (Printf.sprintf "Rat.add: harmonic H_%d" harm_terms)
    harm_reps t_rat;
  check "small chain stays in the native tier"
    (Bigint.sign small > 0 && Bigint.Internal.is_small small
     && Bigint.lt small (Bigint.mul_int (Bigint.of_int small_n) 2147483647));
  check "karatsuba = schoolbook on the large pair"
    (Bigint.equal (Bigint.mul big_a big_b)
       (Bigint.Internal.mul_schoolbook big_a big_b));
  check "large divmod reconstructs"
    (let q, r = Bigint.divmod big_a big_b in
     Bigint.equal big_a (Bigint.add (Bigint.mul q big_b) r));
  check "H_4 = 25/12"
    (Rat.equal
       (List.fold_left
          (fun acc k -> Rat.add acc (Rat.make Bigint.one (Bigint.of_int k)))
          Rat.zero [ 1; 2; 3; 4 ])
       (Rat.make (Bigint.of_int 25) (Bigint.of_int 12)));
  ignore h

(* ------------------------------------------------------------------ *)
(* E23: the observable estimator suite — samples-to-ε on a pinned seed
   (the convergence-rate regression the gate guards: each estimator's
   batches are ledgered as [estimator.<name>] oracle calls, so
   baseline.json pins batch counts and per-batch sample totals), the
   truncation identity and the jobs-independence contract. *)

let e23 () =
  section "E23"
    "Observable estimators: samples-to-eps, early stopping, jobs identity";
  let f =
    Parser.formula_of_string_exn "(x1 & x2) | (x3 & x4) | (x1 & x5 & x6)"
  in
  (* the same function, but the negation turns the monotone cutoff off *)
  let uncut =
    Parser.formula_of_string_exn
      "(x1 & x2) | (x3 & x4) | (x1 & x5 & x6) | (x1 & !x1)"
  in
  let vars = List.init 6 succ in
  let exact = Naive.shap_subsets ~vars f in
  let eps = 0.05 and delta = 0.05 in
  row "  target: eps=%.2f delta=%.2f (Hoeffding budget: %d samples)\n" eps
    delta
    (Sampling.samples_for ~eps ~delta);
  row "  %-13s %-9s %-9s %-12s %-11s %-9s %-8s\n" "estimator" "samples"
    "evals" "half-width" "checkpoints" "max-err" "in-CI";
  (* A checkpoint is an event: (samples, certified max half-width) of
     each "estimator.checkpoint" phase in a buffer installed around the
     run. *)
  let checkpoints b =
    List.filter_map
      (fun (e : Trace.event) ->
         match
           ( e.kind, e.name, List.assoc_opt "samples" e.attrs,
             List.assoc_opt "max_half_width" e.attrs )
         with
         | ( Trace.Phase, "estimator.checkpoint", Some (Trace.Int s),
             Some (Trace.Float w) ) ->
           Some (s, w)
         | _ -> None)
      (Trace.events b)
  in
  let reports =
    List.map
      (fun (label, est, f) ->
         let b = Trace.create () in
         let r =
           Obs.with_request b (fun () ->
               Sampling.shap_estimate ~estimator:est ~seed:23 ~eps ~delta ~vars
                 f)
         in
         let hw = Convergence.max_certified_half_width r.Sampling.monitor in
         let max_err =
           List.fold_left
             (fun acc (e : Sampling.estimate) ->
                let truth =
                  Rat.to_float (List.assoc e.Sampling.variable exact)
                in
                Float.max acc (Float.abs (e.Sampling.value -. truth)))
             0.0 r.Sampling.estimates
         in
         let cps = checkpoints b in
         row "  %-13s %-9d %-9d %-12.5f %-11d %-9.5f %-8b\n" label
           r.Sampling.samples_used r.Sampling.evals hw (List.length cps)
           max_err (max_err <= hw);
         (label, r, cps))
      Sampling.
        [ ("truncated", Truncated, f);
          ("uncut twin", Truncated, uncut);
          ("antithetic", Antithetic, f) ]
  in
  let get label =
    let _, r, cps = List.find (fun (l, _, _) -> l = label) reports in
    (r, cps)
  in
  let uncut_r, _ = get "uncut twin" in
  let trunc_r, trunc_cps = get "truncated" in
  check "truncation changes no estimate (same values, half-widths, samples)"
    (uncut_r.Sampling.samples_used = trunc_r.Sampling.samples_used
     && List.for_all2
          (fun (a : Sampling.estimate) (b : Sampling.estimate) ->
             a.Sampling.variable = b.Sampling.variable
             && a.Sampling.value = b.Sampling.value
             && a.Sampling.half_width = b.Sampling.half_width)
          uncut_r.Sampling.estimates trunc_r.Sampling.estimates);
  check "truncation saves oracle evaluations"
    (trunc_r.Sampling.evals < uncut_r.Sampling.evals);
  check "every estimator stopped at or before the Hoeffding budget"
    (List.for_all
       (fun (_, r, _) ->
          r.Sampling.samples_used <= Sampling.samples_for ~eps ~delta)
       reports);
  check "checkpoint samples strictly increase, half-widths never widen"
    (List.for_all
       (fun (_, _, cps) ->
          let rec ok = function
            | (s, w) :: ((s', w') :: _ as rest) -> s < s' && w' <= w && ok rest
            | _ -> true
          in
          ok cps)
       reports);
  check "truncated run converged below eps"
    (trunc_r.Sampling.converged
     && Convergence.max_certified_half_width trunc_r.Sampling.monitor <= eps
     && List.length trunc_cps > 0);
  (* jobs-independence: the acceptance contract of the estimator engine *)
  let at_jobs jobs =
    Par.set_jobs jobs;
    let r =
      Sampling.shap_estimate ~estimator:Sampling.Antithetic ~seed:23 ~eps
        ~delta ~vars f
    in
    Par.set_jobs 1;
    r
  in
  let r1 = at_jobs 1 and r4 = at_jobs 4 in
  check "antithetic at jobs=4 is bit-identical to jobs=1"
    (r1.Sampling.samples_used = r4.Sampling.samples_used
     && List.for_all2
          (fun (a : Sampling.estimate) (b : Sampling.estimate) ->
             a.Sampling.value = b.Sampling.value
             && a.Sampling.half_width = b.Sampling.half_width)
          r1.Sampling.estimates r4.Sampling.estimates);
  (* Karp–Luby through the same convergence stream *)
  let d =
    [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 3; 4 ]; Vset.of_list [ 1; 5; 6 ] ]
  in
  let kl_samples = if quick then 2000 else 8000 in
  let monitor =
    Convergence.create ~ci:Convergence.Bernstein ~delta:0.05 ~range:1.0
      ~estimator:"karp-luby" ~players:1 ()
  in
  let kl =
    Karp_luby.count_samples ~monitor ~seed:23 ~samples:kl_samples ~vars:vars d
  in
  Convergence.finish monitor;
  let kl_exact = Bigint.to_float (Dpll.count_universe ~vars f) in
  row "  karp-luby: %d samples, estimate %.1f (exact %.0f), coverage \
       half-width %.5f, %d checkpoints\n"
    kl.Karp_luby.samples kl.Karp_luby.value kl_exact
    (Convergence.max_certified_half_width monitor)
    (Convergence.emitted monitor);
  check "karp-luby convergence stream advanced to the sample count"
    (Convergence.samples monitor = kl_samples
     && Convergence.emitted monitor > 0);
  check "karp-luby estimate within 10% of exact"
    (Float.abs (kl.Karp_luby.value -. kl_exact) <= 0.1 *. kl_exact)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel) *)

let micro () =
  section "M" "Micro-benchmarks (bechamel; ns/run, linear fit)";
  let open Bechamel in
  let big_a = Bigint.of_string (String.make 120 '7') in
  let big_b = Bigint.of_string (String.make 80 '3') in
  let st = Random.State.make [| 31 |] in
  let f12 = random_full_formula st ~nvars:12 ~depth:6 in
  let circuit12 = Compile.compile f12 in
  let vars12 = List.init 12 succ in
  let points = Reductions.or_points ~count:16 in
  (* Integer values, as in the real reductions (model counts). *)
  let values = Array.init 16 (fun i -> Rat.of_int ((i * i * 7) + 1)) in
  let db, q0 =
    Hardness.encode (Bipartite.random ~a:4 ~b:4 ~density:0.5 ~seed:3)
  in
  let tests =
    [ Test.make ~name:"bigint-mul-120x80-digits"
        (Staged.stage (fun () -> ignore (Bigint.mul big_a big_b)));
      Test.make ~name:"bigint-divmod-120/80-digits"
        (Staged.stage (fun () -> ignore (Bigint.divmod big_a big_b)));
      Test.make ~name:"vandermonde-solve-16"
        (Staged.stage (fun () ->
             ignore (Linalg.vandermonde_solve ~points ~values)));
      Test.make ~name:"obdd-of-formula-12vars"
        (Staged.stage (fun () ->
             let m = Obdd.create_manager ~order:vars12 in
             ignore (Obdd.of_formula m f12)));
      Test.make ~name:"compile-dDNNF-12vars"
        (Staged.stage (fun () -> ignore (Compile.compile f12)));
      Test.make ~name:"circuit-kcount-12vars"
        (Staged.stage (fun () ->
             ignore (Count.count_by_size ~vars:vars12 circuit12)));
      Test.make ~name:"dpll-count-12vars"
        (Staged.stage (fun () -> ignore (Dpll.count f12)));
      Test.make ~name:"lineage-q0-8tuples"
        (Staged.stage (fun () -> ignore (Lineage.lineage db q0)));
      Test.make ~name:"circuit-shapley-12vars"
        (Staged.stage (fun () ->
             ignore (Circuit_shapley.shap_direct ~vars:vars12 circuit12)))
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:(Some 500) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let results =
         Analyze.all
           (Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |])
           Toolkit.Instance.monotonic_clock results
       in
       Hashtbl.iter
         (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> row "  %-34s %12.1f ns/run\n" name est
            | _ -> row "  %-34s (no estimate)\n" name)
         results)
    tests

(* ------------------------------------------------------------------ *)
(* E24: Theorem 5.1 at scale — hierarchical R(x), S(x,y), every fact
   endogenous, n facts in n/8 groups (seed 1).  The plan and the one
   Shapley pass are timed apart; the values must sum to 1 (Prop. 5) and
   their digest must equal the one pinned from the code before the
   row-carrying plan, the lcm(1..n) Eq. (2) and the quotient backward
   pass (EXPERIMENTS.md has the times of both). *)

let scale_db n =
  let st = Random.State.make [| 1 |] in
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  let groups = n / 8 in
  for i = 1 to groups do
    ignore (Database.insert db "R" [| Value.int i |])
  done;
  let inserted = ref groups in
  while !inserted < n do
    let t =
      [| Value.int (1 + Random.State.int st groups);
         Value.int (1 + Random.State.int st n) |]
    in
    if not (Database.mem db "S" t) then begin
      ignore (Database.insert db "S" t);
      incr inserted
    end
  done;
  db

let e24 () =
  section "E24" "Theorem 5.1 at scale: plan + one Shapley pass, n/8 groups";
  let q = Db_parser.parse_query "R(x), S(x, y)" in
  row "  query: %s\n" (Cq.to_string q);
  row "  %-7s %-7s %-9s %-11s %-11s %s\n" "facts" "groups" "plan(s)"
    "shapley(s)" "alloc(MB)" "digest";
  let pinned =
    [ (160, "97f2653d3d28565c1424f7f3614ac206");
      (320, "d26f1bb1636527aa5ea69bdaf1dc1ca4");
      (640, "bacd0eef00d2ef6c436eec7c7635036d");
      (1280, "736945916decc91df359c02ac0110cfa") ]
  in
  List.iter
    (fun (n, expected) ->
       let db = scale_db n in
       let c, t_plan = time (fun () -> Safe_plan.lineage_circuit db q) in
       let vars = Vset.elements (Database.lineage_vars db) in
       let a0 = Obs.allocated_bytes_now () in
       let values, t_shap =
         time (fun () -> Circuit_shapley.shap_direct ~vars c)
       in
       let alloc = Obs.allocated_bytes_now () -. a0 in
       let digest =
         Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map
                    (fun (v, r) -> string_of_int v ^ " " ^ Rat.to_string r)
                    values)))
       in
       row "  %-7d %-7d %-9.4f %-11.4f %-11.1f %s\n" n (n / 8) t_plan t_shap
         (alloc /. 1e6) digest;
       let sum =
         List.fold_left (fun acc (_, r) -> Rat.add acc r) Rat.zero values
       in
       check (Printf.sprintf "%d facts: the values sum to 1 (Prop. 5)" n)
         (Rat.equal sum Rat.one);
       check (Printf.sprintf "%d facts: digest = the pinned one" n)
         (digest = expected))
    (if quick then List.filter (fun (n, _) -> n <= 320) pinned else pinned)

(* ------------------------------------------------------------------ *)

(* Every section runs inside a fresh Obs ledger; the per-section oracle
   and timing breakdowns are written as one JSON object per section to
   BENCH_STATS.json (override the path with SHAPMC_BENCH_STATS, disable
   with SHAPMC_BENCH_STATS=none), so benchmark trajectories record not
   just wall times but where the oracle calls and time went. *)
let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21);
    ("E22", e22); ("E23", e23); ("E24", e24); ("M", micro) ]

(* The compact per-section record the regression gate (compare.ml)
   diffs against bench/baseline.json: wall-clock plus the oracle-call
   totals of the section's reductions.  The workloads above use pinned
   Random.State seeds, so the call totals — the paper's cost measure —
   are exactly reproducible; only the wall-clock needs a tolerance. *)
let results_entry ~id ~dt =
  let oracles =
    String.concat ","
      (List.map
         (fun (name, a) ->
            Printf.sprintf
              "\"%s\":{\"calls\":%d,\"n_max\":%d,\"l_max\":%d,\"max_size\":%d,\
               \"seconds\":%s}"
              name a.Obs.a_calls a.Obs.a_n_max a.Obs.a_l_max a.Obs.a_size_max
              (Obs.json_float a.Obs.a_seconds))
         (Obs.aggregate ()))
  in
  Printf.sprintf "\"%s\":{\"seconds\":%s,\"oracles\":{%s}}" id
    (Obs.json_float dt) oracles

(* The per-section line item of the append-only bench history
   (BENCH_history.jsonl): wall-clock and oracle-call totals as in the
   regression record, plus the observability signals this run produced —
   oracle-latency percentiles rebuilt from the [oracle_seconds]
   histograms, the Gc deltas bracketing the section, and pool
   utilization (busy / (busy + idle), [null] when no parallel map ran).
   Schema changes must bump the top-level "schema" field. *)
let history_entry ~id ~dt ~alloc ~minor ~major =
  let latency =
    match Metrics.find_histograms "oracle_seconds" with
    | [] -> "\"p50_ms\":null,\"p99_ms\":null"
    | series ->
      let h = Histogram.create () in
      List.iter (fun (_, s) -> Histogram.merge_into ~into:h s) series;
      let ms q = Obs.json_float (1000. *. Histogram.percentile h q) in
      Printf.sprintf "\"p50_ms\":%s,\"p99_ms\":%s" (ms 0.5) (ms 0.99)
  in
  let pool_util =
    let busy = Metrics.counter_total "pool_worker_busy_seconds" in
    let idle = Metrics.counter_total "pool_worker_idle_seconds" in
    if busy +. idle > 0.0 then Printf.sprintf "%.4f" (busy /. (busy +. idle))
    else "null"
  in
  Printf.sprintf
    "\"%s\":{\"seconds\":%s,\"calls\":%d,%s,\"alloc_bytes\":%.0f,\
     \"minor_collections\":%d,\"major_collections\":%d,\"pool_util\":%s}"
    id (Obs.json_float dt) (Obs.call_count ()) latency alloc minor major
    pool_util

let () =
  Printf.printf
    "shapmc benchmark harness — reproduction of Kara/Olteanu/Suciu, PODS 2024\n";
  Printf.printf "mode: %s\n" (if quick then "quick" else "full");
  let stats_path =
    Option.value ~default:"BENCH_STATS.json"
      (Sys.getenv_opt "SHAPMC_BENCH_STATS")
  in
  let results_path =
    Option.value ~default:"BENCH_results.json"
      (Sys.getenv_opt "SHAPMC_BENCH_RESULTS")
  in
  let history_path =
    Option.value ~default:"BENCH_history.jsonl"
      (Sys.getenv_opt "SHAPMC_BENCH_HISTORY")
  in
  let t0 = Unix.gettimeofday () in
  let sections =
    List.map
      (fun (id, f) ->
         Obs.reset ();
         Obs.enable ();
         let alloc0 = Obs.allocated_bytes_now () in
         let gc0 = Gc.quick_stat () in
         let s0 = Unix.gettimeofday () in
         f ();
         let dt = Unix.gettimeofday () -. s0 in
         let gc1 = Gc.quick_stat () in
         let alloc = Obs.allocated_bytes_now () -. alloc0 in
         let stats_json =
           Printf.sprintf "\"%s\":{\"seconds\":%.3f,\"stats\":%s}" id dt
             (Obs.to_json ())
         in
         let result_json = results_entry ~id ~dt in
         let history_json =
           history_entry ~id ~dt ~alloc
             ~minor:(gc1.Gc.minor_collections - gc0.Gc.minor_collections)
             ~major:(gc1.Gc.major_collections - gc0.Gc.major_collections)
         in
         Obs.reset ();
         (stats_json, (result_json, history_json)))
      experiments
  in
  let sections = List.map (fun (s, (r, h)) -> (s, r, h)) sections in
  Obs.disable ();
  let mode = if quick then "quick" else "full" in
  let total = Unix.gettimeofday () -. t0 in
  if stats_path <> "none" then begin
    let oc = open_out stats_path in
    output_string oc
      (Printf.sprintf "{\"mode\":\"%s\",\"sections\":{%s}}\n" mode
         (String.concat "," (List.map (fun (s, _, _) -> s) sections)));
    close_out oc;
    Printf.printf "\nPer-section oracle/timing stats written to %s\n"
      stats_path
  end;
  if results_path <> "none" then begin
    let oc = open_out results_path in
    output_string oc
      (Printf.sprintf "{\"mode\":\"%s\",\"sections\":{%s}}\n" mode
         (String.concat "," (List.map (fun (_, r, _) -> r) sections)));
    close_out oc;
    Printf.printf
      "Regression-gate results written to %s (diff with bench/compare.exe)\n"
      results_path
  end;
  if history_path <> "none" then begin
    (* Append-only: one line per run, so the committed file accumulates a
       timeline of cost profiles across commits.  Stamp each line with
       the commit it was produced at so the timeline stays attributable
       after rebases, suffixed "-dirty" when tracked files differ from
       it; "unknown" outside a git checkout. *)
    let commit =
      try
        let ic =
          Unix.open_process_in
            "git describe --always --dirty --abbrev=7 --exclude='*' 2>/dev/null"
        in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, l when l <> "" -> l
        | _ -> "unknown"
      with Unix.Unix_error _ | Sys_error _ -> "unknown"
    in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 history_path
    in
    output_string oc
      (Printf.sprintf
         "{\"schema\":1,\"ts\":%.0f,\"commit\":\"%s\",\"mode\":\"%s\",\
          \"total_seconds\":%s,\"sections\":{%s}}\n"
         (Unix.time ()) commit mode (Obs.json_float total)
         (String.concat "," (List.map (fun (_, _, h) -> h) sections)));
    close_out oc;
    Printf.printf "Run summary appended to %s\n" history_path
  end;
  Printf.printf "\nAll experiment sections completed in %.1fs.\n" total

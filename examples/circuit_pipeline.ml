(* Knowledge-compilation pipeline (Section 4 / Theorem 4.1).

   Compiles a non-trivial formula into an OBDD and into a d-DNNF-style
   circuit, computes Shapley values polynomially on the circuit, shows the
   Lemma 9 OR-substitution at work, and demonstrates the asymptotic gap
   against the factorial-time definition.

   Run with:  dune exec examples/circuit_pipeline.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A chain of implications with a twist: readable but not read-once. *)
let formula n =
  let clause i =
    Formula.disj2
      (Formula.not_ (Formula.var i))
      (Formula.disj2 (Formula.var (i + 1)) (Formula.var ((i mod 3) + 1)))
  in
  Formula.and_ (List.init (n - 1) (fun i -> clause (i + 1)))

let () =
  print_endline "=== From functions to circuits (Theorem 4.1) ===\n";
  let n = 14 in
  let f = formula n in
  let vars = List.init n succ in
  Printf.printf "Formula over %d variables, size %d\n" n (Formula.size f);

  (* Compile both ways. *)
  let (circuit, cstats), t_compile = time (fun () -> Compile.compile_with_stats f) in
  Printf.printf "d-DNNF compiler: %d gates (%d Shannon expansions) in %.3fs\n"
    (Circuit.size circuit) cstats.Dpll.branches t_compile;
  let m = Obdd.create_manager ~order:vars in
  let obdd, t_obdd = time (fun () -> Obdd.of_formula m f) in
  Printf.printf "OBDD:            %d nodes in %.3fs\n" (Obdd.size obdd) t_obdd;

  (* Counting agrees everywhere. *)
  let c1 = Count.count ~vars circuit in
  let c2 = Obdd.count m ~vars obdd in
  let c3 = Dpll.count_universe ~vars f in
  Printf.printf "\n#F: circuit=%s obdd=%s dpll=%s\n" (Bigint.to_string c1)
    (Bigint.to_string c2) (Bigint.to_string c3);

  (* Shapley on the circuit: polynomial. *)
  let shap_c, t_c = time (fun () -> Circuit_shapley.shap_direct ~vars circuit) in
  Printf.printf "\nShapley on circuit (%d vars): %.4fs\n" n t_c;
  List.iteri
    (fun idx (i, v) ->
       if idx < 4 then Printf.printf "  x%-3d %-12s (~ %.4f)\n" i (Rat.to_string v) (Rat.to_float v))
    shap_c;
  Printf.printf "  ... (%d more)\n" (n - 4);

  (* Versus the definitional algorithm, where feasible. *)
  let small = 7 in
  let fs = formula small in
  let svars = List.init small succ in
  let _, t_perm = time (fun () -> Naive.shap_permutations ~vars:svars fs) in
  let _, t_circ =
    time (fun () -> Circuit_shapley.shap_direct ~vars:svars (Compile.compile fs))
  in
  Printf.printf
    "\nAt n=%d: permutations (n! terms) %.4fs vs circuit %.4fs\n" small t_perm
    t_circ;
  Printf.printf "At n=%d the permutation algorithm would need %s terms.\n" n
    (Bigint.to_string (Combi.factorial n))

(* Lemma 9: OR-substitution directly on the circuit. *)
let () =
  print_endline "\n=== Lemma 9: OR-substitution on circuits ===";
  let f = Parser.formula_of_string_exn "x1 & (x2 | !x3)" in
  let c = Compile.compile f in
  Printf.printf "circuit for %s: %d gates\n" (Formula.to_string f)
    (Circuit.size c);
  List.iter
    (fun l ->
       let c', _ = Or_subst.uniform_or ~l c in
       Printf.printf
         "  width %-2d -> %3d gates, still deterministic: %b, #models = %s\n" l
         (Circuit.size c')
         (Circuit.check_deterministic ~max_vars:12 c')
         (Bigint.to_string (Count.count_circuit c')))
    [ 1; 2; 3; 4 ];
  (* Claim 3.5 read off the circuit counts *)
  let kv = Count.count_by_size ~vars:[ 1; 2; 3 ] c in
  print_endline "  Claim 3.5 check: #F^(l) = sum_k (2^l-1)^k #_k F";
  List.iter
    (fun l ->
       let c', _ = Or_subst.uniform_or ~l c in
       let lhs = Count.count_circuit c' in
       let rhs = Kvec.weighted_sum kv (Bigint.two_pow_minus_one l) in
       Printf.printf "    l=%d: %s = %s  %b\n" l (Bigint.to_string lhs)
         (Bigint.to_string rhs) (Bigint.equal lhs rhs))
    [ 1; 2; 3; 4 ]

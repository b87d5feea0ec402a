(** Bound-asserting tests: the Obs ledger, recorded while running the
    paper's reductions, must witness exactly the oracle-call and size
    bounds the lemmas state.

    - Lemma 3.3: [#_* F] from a [#]-oracle consults it on exactly [n + 1]
      OR-substituted instances [F^(l)], [l = 1..n+1], each over [n·l]
      variables.
    - Lemma 3.2 (over 3.3): all Shapley values consult the [#]-oracle
      exactly [(n + 1) + n²] times.
    - Lemma 3.4: [#F] from a Shap-oracle consults it exactly [n²] times.
    - Lemma 9: circuit OR-substitution grows the circuit by [O(k·ℓ)]
      gates. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* Run [f] under a fresh, enabled ledger; always restore the disabled
   default so other suites are unaffected.  [events kind] reads back
   the run's events of one kind from a recorded stream. *)
let stream = ref (Trace.create ())

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  stream := Trace.create ();
  Obs.set_trace (Some !stream);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace None;
      Obs.disable ();
      Obs.reset ())
    f

let events kind =
  List.filter (fun e -> e.Trace.kind = kind) (Trace.events !stream)

let int_attr key e =
  match List.assoc_opt key e.Trace.attrs with
  | Some (Trace.Int v) -> v
  | _ -> Alcotest.failf "event %s lacks int attr %s" e.Trace.name key

(* A deterministic pseudo-random formula mentioning variables 1..nvars. *)
let rec random_formula st ~nvars ~depth =
  if depth <= 0 then Formula.var (1 + Random.State.int st nvars)
  else
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

(* ------------------------------------------------------------------ *)

let switch_tests =
  [ t "disabled ledger records nothing" (fun () ->
        Obs.reset ();
        Obs.disable ();
        let b = Trace.create () in
        Obs.set_trace (Some b);
        Fun.protect ~finally:(fun () -> Obs.set_trace None) (fun () ->
            Obs.incr "x";
            Obs.record ~oracle:"o" ~n:1 ~seconds:0.0 ();
            Obs.record_subst ~kind:"k" ~pre:1 ~post:2 ~fresh:3 ();
            ignore (Obs.with_span "s" (fun () -> 42)));
        Alcotest.(check int) "counter" 0 (Obs.counter "x");
        Alcotest.(check int) "calls" 0 (Obs.call_count ());
        Alcotest.(check int) "substs" 0 (Trace.emitted b);
        Alcotest.(check int) "spans" 0 (List.length (Obs.spans ())));
    t "counters, spans and ledgers accumulate when enabled" (fun () ->
        with_obs (fun () ->
            Obs.incr "x";
            Obs.add "x" 2;
            let v =
              Obs.with_span "outer" (fun () ->
                  Obs.with_span "inner" (fun () -> 7))
            in
            Alcotest.(check int) "span result" 7 v;
            Obs.record ~oracle:"o" ~n:3 ~arity:2 ~size:5 ~seconds:0.0 ();
            Alcotest.(check int) "counter" 3 (Obs.counter "x");
            Alcotest.(check int) "calls" 1 (Obs.call_count ~oracle:"o" ());
            let paths = List.map (fun s -> s.Obs.span_path) (Obs.spans ()) in
            Alcotest.(check (list string)) "hierarchical paths"
              [ "outer"; "outer/inner" ] paths));
    t "report and JSON smoke" (fun () ->
        with_obs (fun () ->
            let _ =
              Pipeline.kcounts_via_count_oracle
                ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2 ]
                (Parser.formula_of_string_exn "x1 & x2")
            in
            let r = Obs.report () in
            Alcotest.(check bool) "report mentions oracle" true
              (contains ~affix:"dpll" r);
            let j = Obs.to_json () in
            Alcotest.(check bool) "json object" true
              (String.length j > 2 && j.[0] = '{');
            Alcotest.(check bool) "json has oracle_calls" true
              (contains ~affix:"\"oracle_calls\"" j))) ]

(* ------------------------------------------------------------------ *)
(* Lemma 3.3: exactly n+1 count-oracle calls, arities 1..n+1, instance
   universes of size n·l. *)

let lemma33_tests =
  List.map
    (fun n ->
       t (Printf.sprintf "Lemma 3.3: n+1 oracle calls at n = %d" n) (fun () ->
           let st = Random.State.make [| 33; n |] in
           let f = random_formula st ~nvars:n ~depth:n in
           let vars = List.init n succ in
           with_obs (fun () ->
               let kv =
                 Pipeline.kcounts_via_count_oracle
                   ~oracle:Pipeline.dpll_count_oracle ~vars f
               in
               Alcotest.(check int) "exactly n+1 calls" (n + 1)
                 (Obs.call_count ~oracle:"dpll" ());
               let calls = events Trace.Oracle in
               Alcotest.(check (list int)) "arities are 1..n+1"
                 (List.init (n + 1) succ)
                 (List.sort compare (List.map (int_attr "l") calls));
               List.iter
                 (fun c ->
                    Alcotest.(check int)
                      (Printf.sprintf "F^(%d) is over n·l variables"
                         (int_attr "l" c))
                      (n * int_attr "l" c) (int_attr "n" c))
                 calls;
               (* the instrumented run still computes the right answer *)
               Alcotest.check kvec "kcounts correct"
                 (Brute.count_by_size ~vars f) kv)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Lemma 3.2 over Lemma 3.3: (n+1) + n² count-oracle calls in total —
   n+1 for #_* of the isomorphic copy, plus n zapped instances of n
   oracle calls each. *)

let lemma32_tests =
  List.map
    (fun n ->
       t (Printf.sprintf "Lemma 3.2: (n+1) + n^2 oracle calls at n = %d" n)
         (fun () ->
            let st = Random.State.make [| 32; n |] in
            let f = random_formula st ~nvars:n ~depth:n in
            let vars = List.init n succ in
            with_obs (fun () ->
                let shap =
                  Pipeline.shap_via_count_oracle
                    ~oracle:Pipeline.dpll_count_oracle ~vars f
                in
                Alcotest.(check int) "call budget" ((n + 1) + (n * n))
                  (Obs.call_count ~oracle:"dpll" ());
                check_shap "values correct" (Naive.shap_subsets ~vars f) shap)))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Lemma 3.4: n² Shapley-oracle calls (n positions × arities 1..n). *)

let lemma34_tests =
  List.map
    (fun n ->
       t (Printf.sprintf "Lemma 3.4: n^2 Shap-oracle calls at n = %d" n)
         (fun () ->
            let st = Random.State.make [| 34; n |] in
            let f = random_formula st ~nvars:n ~depth:n in
            let vars = List.init n succ in
            with_obs (fun () ->
                let count =
                  Pipeline.count_via_shap_oracle
                    ~oracle:Pipeline.shap_oracle_of_subsets ~vars f
                in
                Alcotest.(check int) "n^2 calls" (n * n)
                  (Obs.call_count ~oracle:"eq2-subsets" ());
                Alcotest.check bigint "count correct" (Brute.count ~vars f)
                  count)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Lemma 9: OR-substituting every variable of a d-D circuit G by a block
   of l fresh variables yields a circuit of at most |G| + 10·k·l gates
   (the chain construction spends < 10 gates per fresh variable), and the
   substitution ledger records the pre/post sizes. *)

let lemma9_case ~seed ~nvars ~l () =
  let st = Random.State.make [| 9; seed |] in
  let f = random_formula st ~nvars ~depth:5 in
  let g = Compile.compile f in
  let k = Vset.cardinal (Circuit.vars g) in
  with_obs (fun () ->
      let g', blocks = Or_subst.uniform_or ~l g in
      Alcotest.(check bool)
        (Printf.sprintf "|G'| <= |G| + 10·k·l (|G|=%d, k=%d, l=%d, |G'|=%d)"
           (Circuit.size g) k l (Circuit.size g'))
        true
        (Circuit.size g' <= Circuit.size g + (10 * k * l));
      Alcotest.(check int) "k blocks of l fresh variables each" (k * l)
        (List.fold_left (fun acc (_, zs) -> acc + List.length zs) 0 blocks);
      match events Trace.Subst with
      | [ e ] ->
        Alcotest.(check string) "kind" "circuit.or" e.Trace.name;
        Alcotest.(check int) "ledgered pre-size" (Circuit.size g)
          (int_attr "pre" e);
        Alcotest.(check int) "ledgered post-size" (Circuit.size g')
          (int_attr "post" e);
        Alcotest.(check int) "ledgered fresh variables" (k * l)
          (int_attr "fresh" e)
      | evs ->
        Alcotest.failf "expected exactly one subst event, got %d"
          (List.length evs))

let lemma9_tests =
  List.concat_map
    (fun (seed, nvars) ->
       List.map
         (fun l ->
            t
              (Printf.sprintf
                 "Lemma 9: |G'| = O(|G| + k·l) (seed %d, %d vars, l = %d)"
                 seed nvars l)
              (lemma9_case ~seed ~nvars ~l))
         [ 1; 2; 4; 8; 16 ])
    [ (1, 4); (2, 6); (3, 8) ]

(* ------------------------------------------------------------------ *)
(* Regression: the pipeline universe must reject duplicate variables —
   previously [~vars:[1; 1; 2]] silently deduped into a 2-variable
   universe while reporting n = 3, corrupting every downstream count. *)

let universe_tests =
  [ t "duplicate universe variables rejected (kcounts route)" (fun () ->
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Pipeline: duplicate variables in the universe")
          (fun () ->
             ignore
               (Pipeline.kcounts_via_count_oracle
                  ~oracle:Pipeline.brute_count_oracle ~vars:[ 1; 1; 2 ]
                  (Formula.var 1))));
    t "duplicate universe variables rejected (shap route)" (fun () ->
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Pipeline: duplicate variables in the universe")
          (fun () ->
             ignore
               (Pipeline.shap_via_count_oracle
                  ~oracle:Pipeline.brute_count_oracle ~vars:[ 2; 1; 2 ]
                  (Formula.var 1))));
    t "distinct universe variables still accepted" (fun () ->
        let f = Parser.formula_of_string_exn "x1 & x2" in
        Alcotest.check kvec "kcounts"
          (Brute.count_by_size ~vars:[ 1; 2; 3 ] f)
          (Pipeline.kcounts_via_count_oracle
             ~oracle:Pipeline.brute_count_oracle ~vars:[ 3; 1; 2 ] f)) ]

let suite =
  switch_tests @ lemma33_tests @ lemma32_tests @ lemma34_tests @ lemma9_tests
  @ universe_tests

(** The approximate-Shapley estimator suite and its convergence
    telemetry: sample-budget arithmetic, the Welford/CI machinery of
    {!Convergence}, and seeded statistical checks of every estimator
    against the exact dichotomy solver on small hierarchical instances
    — at jobs 1 and 4, which must agree bit-for-bit.

    Determinism mirrors {!Test_differential}: fixed-seed QCheck states,
    iteration counts scaled up by [@slow] through [SHAPMC_QCHECK_COUNT]. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

let iterations default =
  match Sys.getenv_opt "SHAPMC_QCHECK_COUNT" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

let dtest ~seed ~count name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 2024; seed |])
    (QCheck.Test.make ~count:(iterations count) ~name arb prop)

let close ?(tol = 1e-9) what a b =
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: %.17g vs %.17g (tol %g)" what a b tol

let all_estimators = Sampling.[ Truncated; Antithetic ]

(* The (index, samples, certified max half-width) of every checkpoint
   [f] emits, read off the "estimator.checkpoint" events of a buffer
   installed around it. *)
let checkpoints_of f =
  let b = Trace.create () in
  Obs.with_request b f;
  List.filter_map
    (fun (e : Trace.event) ->
      match
        ( e.kind, e.name, List.assoc_opt "checkpoint" e.attrs,
          List.assoc_opt "samples" e.attrs,
          List.assoc_opt "max_half_width" e.attrs )
      with
      | ( Trace.Phase, "estimator.checkpoint", Some (Trace.Int k),
          Some (Trace.Int s), Some (Trace.Float w) ) ->
          Some (k, s, w)
      | _ -> None)
    (Trace.events b)

(* ------------------------------------------------------------------ *)
(* Sample-budget arithmetic *)

let budget_tests =
  [ t "samples_for matches the Hoeffding bound" (fun () ->
        let m ~eps ~delta =
          int_of_float (ceil (2.0 *. log (2.0 /. delta) /. (eps *. eps)))
        in
        List.iter
          (fun (eps, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "eps=%g delta=%g" eps delta)
              (m ~eps ~delta)
              (Sampling.samples_for ~eps ~delta))
          [ (0.05, 0.05); (0.1, 0.1); (0.2, 0.01); (0.5, 0.5) ]);
    t "rejects nonsense eps/delta" (fun () ->
        List.iter
          (fun (eps, delta) ->
            Alcotest.check_raises
              (Printf.sprintf "eps=%g delta=%g" eps delta)
              (Invalid_argument "Sampling.samples_for")
              (fun () -> ignore (Sampling.samples_for ~eps ~delta)))
          [ (0.0, 0.05); (-1.0, 0.05); (0.1, 0.0); (0.1, 1.0) ]);
    t "guards int_of_float overflow on tiny eps" (fun () ->
        List.iter
          (fun eps ->
            match Sampling.samples_for ~eps ~delta:0.05 with
            | exception Invalid_argument m ->
                Alcotest.(check bool)
                  "error names the 1e15 ceiling" true
                  (String.length m > 0
                  && String.length m >= 4
                  &&
                  let rec has i =
                    i + 4 <= String.length m
                    && (String.sub m i 4 = "1e15" || has (i + 1))
                  in
                  has 0)
            | (_ : int) -> Alcotest.failf "eps=%g did not raise" eps)
          [ 1e-9; 1e-200; Float.min_float ]) ]

(* ------------------------------------------------------------------ *)
(* Convergence: quantiles, half-width formulas, Welford streaming *)

let convergence_tests =
  [ t "z_quantile hits the usual table" (fun () ->
        close ~tol:1e-6 "z(0.975)" 1.959963985 (Convergence.z_quantile 0.975);
        close ~tol:1e-6 "z(0.995)" 2.575829304 (Convergence.z_quantile 0.995);
        close ~tol:1e-8 "z(0.5)" 0.0 (Convergence.z_quantile 0.5);
        close ~tol:1e-9 "symmetry"
          (-.Convergence.z_quantile 0.975)
          (Convergence.z_quantile 0.025);
        List.iter
          (fun p ->
            match Convergence.z_quantile p with
            | exception Invalid_argument _ -> ()
            | (_ : float) -> Alcotest.failf "p=%g did not raise" p)
          [ 0.0; 1.0; -0.5; 2.0 ]);
    t "hw_of closed forms" (fun () ->
        let delta = 0.05 and range = 2.0 in
        close "hoeffding"
          (range *. sqrt (log (2.0 /. delta) /. (2.0 *. 1000.0)))
          (Convergence.hw_of ~ci:Hoeffding ~delta ~range ~count:1000
             ~variance:5.0);
        (* variance-free Bernstein collapses to its deviation term *)
        close "bernstein, zero variance"
          (3.0 *. range *. log (3.0 /. delta) /. 1000.0)
          (Convergence.hw_of ~ci:Bernstein ~delta ~range ~count:1000
             ~variance:0.0);
        close "clt"
          (Convergence.z_quantile 0.975 *. sqrt (0.25 /. 1000.0))
          (Convergence.hw_of ~ci:Clt ~delta ~range ~count:1000 ~variance:0.25);
        (* the variance-adaptive intervals need a variance estimate *)
        List.iter
          (fun ci ->
            Alcotest.(check bool)
              "infinite below 2 observations" true
              (Convergence.hw_of ~ci ~delta ~range ~count:1 ~variance:0.0
               = infinity))
          Convergence.[ Clt; Bernstein ];
        (* Hoeffding is monotone in the count *)
        let hw c =
          Convergence.hw_of ~ci:Hoeffding ~delta ~range ~count:c ~variance:0.0
        in
        Alcotest.(check bool) "monotone" true (hw 100 > hw 200 && hw 200 > hw 400));
    t "welford matches direct moments" (fun () ->
        let xs = [ 0.0; 1.0; -1.0; 0.5; 0.25; -0.75; 1.0; 0.0 ] in
        let c = Convergence.create ~estimator:"test" ~players:1 () in
        List.iter (fun x -> Convergence.observe c ~player:0 x) xs;
        let n = float_of_int (List.length xs) in
        let mean = List.fold_left ( +. ) 0.0 xs /. n in
        let var =
          List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
          /. (n -. 1.0)
        in
        close "mean" mean (Convergence.mean c ~player:0);
        close "variance" var (Convergence.variance c ~player:0));
    t "merge_moments = sequential observe" (fun () ->
        let xs = [ 0.3; -0.2; 0.9; 0.9; -1.0; 0.0; 0.4 ]
        and ys = [ 1.0; -0.5; 0.25 ] in
        let seq = Convergence.create ~estimator:"seq" ~players:1 () in
        List.iter (fun x -> Convergence.observe seq ~player:0 x) (xs @ ys);
        let merged = Convergence.create ~estimator:"mrg" ~players:1 () in
        let feed batch =
          let n = float_of_int (List.length batch) in
          let mean = List.fold_left ( +. ) 0.0 batch /. n in
          let m2 =
            List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 batch
          in
          Convergence.merge_moments merged ~player:0
            ~count:(List.length batch) ~mean ~m2
        in
        feed xs;
        feed ys;
        close "mean" (Convergence.mean seq ~player:0)
          (Convergence.mean merged ~player:0);
        close "variance"
          (Convergence.variance seq ~player:0)
          (Convergence.variance merged ~player:0));
    t "checkpoint envelope never widens" (fun () ->
        let c =
          Convergence.create ~ci:Bernstein ~interval:10 ~estimator:"env"
            ~players:2 ()
        in
        let ks =
          checkpoints_of (fun () ->
              (* a deterministic bounded stream with drifting variance *)
              for i = 1 to 200 do
                let x = Float.of_int ((i * 37 mod 19) - 9) /. 9.0 in
                Convergence.observe c ~player:0 x;
                Convergence.observe c ~player:1 (-.x);
                Convergence.advance c 1
              done;
              Convergence.finish c)
        in
        Alcotest.(check bool) "several checkpoints" true (List.length ks >= 10);
        let rec walk = function
          | (_, s, w) :: ((_, s', w') :: _ as rest) ->
              Alcotest.(check bool) "samples strictly increase" true (s' > s);
              Alcotest.(check bool) "certified width never widens" true
                (w' <= w);
              walk rest
          | _ -> ()
        in
        walk ks;
        let _, _, last = List.nth ks (List.length ks - 1) in
        close "certified = last checkpoint"
          (Convergence.max_certified_half_width c)
          last;
        (* finish is idempotent: no further checkpoints appear *)
        let emitted = Convergence.emitted c in
        Convergence.finish c;
        Alcotest.(check int) "idempotent finish" emitted
          (Convergence.emitted c));
    t "a stream receives every emitted checkpoint, in sample order"
      (fun () ->
        let c =
          Convergence.create ~interval:1 ~estimator:"stream" ~players:1 ()
        in
        let ks =
          checkpoints_of (fun () ->
              for _ = 1 to 10 do
                Convergence.observe c ~player:0 0.5;
                Convergence.advance c 1
              done)
        in
        Alcotest.(check int) "emitted" 10 (Convergence.emitted c);
        Alcotest.(check (list (pair int int)))
          "one event per checkpoint, in sample order"
          (List.init 10 (fun i -> (i, i + 1)))
          (List.map (fun (k, s, _) -> (k, s)) ks));
    t "create validates its arguments" (fun () ->
        let bad k = try ignore (k ()); false with Invalid_argument _ -> true in
        Alcotest.(check bool) "players 0" true
          (bad (fun () -> Convergence.create ~estimator:"x" ~players:0 ()));
        Alcotest.(check bool) "interval 0" true
          (bad (fun () ->
               Convergence.create ~interval:0 ~estimator:"x" ~players:1 ()));
        Alcotest.(check bool) "delta 1" true
          (bad (fun () ->
               Convergence.create ~delta:1.0 ~estimator:"x" ~players:1 ()));
        Alcotest.(check bool) "range 0" true
          (bad (fun () ->
               Convergence.create ~range:0.0 ~estimator:"x" ~players:1 ()))) ]

(* ------------------------------------------------------------------ *)
(* Estimator behaviour on fixed instances *)

let with_jobs n k =
  let before = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs before) k

let report_key (r : Sampling.report) =
  ( List.map
      (fun (e : Sampling.estimate) -> (e.variable, e.value, e.half_width))
      r.estimates,
    r.samples_used,
    r.evals )

(* Runs both estimators at seed 23, eps = delta = 0.05 over x1..x6 and
   checks samples, evaluations and estimates against hex-float pins. *)
let check_pinned formula pinned =
  let f = Parser.formula_of_string_exn formula in
  List.iter
    (fun (estimator, samples, evals, values) ->
      let name = Sampling.estimator_name estimator in
      let r =
        Sampling.shap_estimate ~estimator ~seed:23 ~eps:0.05 ~delta:0.05
          ~vars:(List.init 6 succ) f
      in
      Alcotest.(check int) (name ^ " samples") samples r.samples_used;
      Alcotest.(check int) (name ^ " evals") evals r.evals;
      Alcotest.(check (list (float 0.0))) (name ^ " estimates")
        (List.map float_of_string values)
        (List.map (fun (e : Sampling.estimate) -> e.value) r.estimates))
    pinned

let estimator_tests =
  [ t "every estimator covers the exact Example 13 values" (fun () ->
        let db = example13_db () in
        let q = Db_parser.parse_query "R1(x), R2(x)" in
        let exact, _ = Dichotomy.shapley db q in
        (* Example 2 adds a non-positive input with a negative value *)
        let cases =
          [ ("example 13", Lineage.lineage_formula db q, exact);
            ( "example 2",
              example2_formula,
              Naive.shap_subsets ~vars:example2_vars example2_formula ) ]
        in
        List.iter
          (fun (case, f, exact) ->
            List.iter
              (fun estimator ->
                let r =
                  Sampling.shap_estimate ~estimator ~seed:5 ~eps:0.05
                    ~delta:0.05 ~vars:(List.map fst exact) f
                in
                List.iter
                  (fun (e : Sampling.estimate) ->
                    let reference =
                      Rat.to_float (List.assoc e.variable exact)
                    in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: %s x%d in CI" case
                         (Sampling.estimator_name estimator)
                         e.variable)
                      true
                      (Float.abs (e.value -. reference) <= e.half_width))
                  r.estimates)
              all_estimators)
          cases);
    t "rejects an empty budget and an empty universe" (fun () ->
        let raises what k =
          match k () with
          | exception Invalid_argument _ -> ()
          | (_ : Sampling.report) -> Alcotest.failf "%s did not raise" what
        in
        raises "max_samples 0" (fun () ->
            Sampling.shap_estimate ~max_samples:0 ~vars:example2_vars
              example2_formula);
        raises "no players" (fun () ->
            Sampling.shap_estimate ~vars:[] Formula.tru));
    t "truncation changes no estimate, only the evaluations" (fun () ->
        let f = Parser.formula_of_string_exn "(x1 & x2) | (x3 & x4)" in
        (* equivalent, but the negation turns the cutoff off *)
        let uncut =
          Parser.formula_of_string_exn "(x1 & x2) | (x3 & x4) | (x1 & !x1)"
        in
        let vars = [ 1; 2; 3; 4 ] in
        let run f = Sampling.shap_estimate ~seed:3 ~eps:0.05 ~vars f in
        let u = run uncut and tr = run f in
        Alcotest.(check bool) "identical estimates" true
          (List.for_all2
             (fun (a : Sampling.estimate) (b : Sampling.estimate) ->
               a.variable = b.variable && a.value = b.value
               && a.half_width = b.half_width)
             u.estimates tr.estimates);
        Alcotest.(check int) "same samples" u.samples_used tr.samples_used;
        Alcotest.(check bool) "truncation saves evals" true
          (tr.evals < u.evals));
    t "two estimator names; the removed ones are unknown" (fun () ->
        List.iter
          (fun estimator ->
            let name = Sampling.estimator_name estimator in
            Alcotest.(check bool) (name ^ " round-trips") true
              (Sampling.estimator_of_string name = Some estimator))
          all_estimators;
        Alcotest.(check (list string)) "names" [ "truncated"; "antithetic" ]
          (List.map Sampling.estimator_name all_estimators);
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " is unknown") true
              (Sampling.estimator_of_string name = None))
          [ "permutation"; "stratified"; "bogus"; "" ]);
    (* Each estimator's RNG tag and batch geometry fix its stream, so the
       E23 run at seed 23 must keep these exact samples, evaluations and
       point estimates (means of integer sums, so no libm rounding). *)
    t "seed-23 estimates pinned" (fun () ->
        check_pinned "(x1 & x2) | (x3 & x4) | (x1 & x5 & x6)"
          Sampling.
            [ ( Truncated, 2048, 9330,
                [ "0x1.417ffffffffffp-2"; "0x1.26p-3"; "0x1.c200000000002p-3";
                  "0x1.c700000000001p-3"; "0x1.9400000000001p-5";
                  "0x1.a400000000001p-5" ] );
              ( Antithetic, 2560, 17920,
                [ "0x1.22p-2"; "0x1.4666666666664p-3"; "0x1.d733333333332p-3";
                  "0x1.bccccccccccccp-3"; "0x1.9666666666666p-5";
                  "0x1.f000000000003p-5" ] ) ]);
    (* The same pins on a non-positive formula, so a negation bug that
       still looks statistically plausible fails here. *)
    t "seed-23 estimates pinned, non-positive formula" (fun () ->
        check_pinned "(x1 & !x2) | (x3 & x4) | (!x1 & x5 & x6)"
          Sampling.
            [ ( Truncated, 2048, 14336,
                [ "0x1.05p-2"; "-0x1.d700000000002p-3"; "0x1.758p-2";
                  "0x1.747ffffffffffp-2"; "0x1.e3fffffffffffp-4";
                  "0x1.0700000000002p-3" ] );
              ( Antithetic, 2048, 14336,
                [ "0x1.2c80000000001p-2"; "-0x1.ffp-3"; "0x1.6fp-2";
                  "0x1.7ap-2"; "0x1.c2p-4"; "0x1.e5ffffffffffep-4" ] ) ]);
    t "repeated players count once" (fun () ->
        let f = Parser.formula_of_string_exn "(x1 & x2) | x3" in
        let run vars =
          report_key (Sampling.shap_estimate ~seed:1 ~max_samples:2000 ~vars f)
        in
        Alcotest.(check bool) "[1;1;2;3] reports as [1;2;3]" true
          (run [ 1; 1; 2; 3 ] = run [ 1; 2; 3 ]));
    t "jobs 1 and 4 replay bit-identically" (fun () ->
        let f = Parser.formula_of_string_exn "(x1 & x2) | (x3 & x4 & x5)" in
        let vars = [ 1; 2; 3; 4; 5 ] in
        List.iter
          (fun estimator ->
            let run jobs =
              with_jobs jobs (fun () ->
                  report_key
                    (Sampling.shap_estimate ~estimator ~seed:11 ~eps:0.08
                       ~vars f))
            in
            Alcotest.(check bool)
              (Sampling.estimator_name estimator)
              true
              (run 1 = run 4))
          all_estimators);
    t "a deadline stops an unconverged run" (fun () ->
        let f = Parser.formula_of_string_exn "(x1 & x2) | (x3 & x4)" in
        let r =
          Sampling.shap_estimate ~seed:1 ~deadline:1e-6
            ~max_samples:1_000_000 ~vars:[ 1; 2; 3; 4 ] f
        in
        Alcotest.(check bool) "stopped early" true
          (r.samples_used < 1_000_000);
        Alcotest.(check bool) "not converged" false r.converged);
    t "karp-luby streams through a shared monitor" (fun () ->
        let d = [ Vset.of_list [ 1; 2 ]; Vset.of_list [ 3 ] ] in
        let c =
          Convergence.create ~ci:Bernstein ~range:1.0 ~interval:64
            ~estimator:"karp-luby" ~players:1 ()
        in
        let e =
          Karp_luby.count_samples ~monitor:c ~seed:9 ~samples:500
            ~vars:[ 1; 2; 3; 4 ] d
        in
        Convergence.finish c;
        Alcotest.(check int) "every sample observed" 500
          (Convergence.samples c);
        Alcotest.(check bool) "checkpoints emitted" true
          (Convergence.emitted c >= 500 / 64);
        let mean = Convergence.mean c ~player:0 in
        Alcotest.(check bool) "coverage indicator mean in [0,1]" true
          (0.0 <= mean && mean <= 1.0);
        (* #F = 10 over 4 vars: {1,2} covers 4 models, {3} covers 8, overlap 2 *)
        Alcotest.(check bool) "estimate near #F" true
          (Float.abs (e.value -. 10.0) <= 3.0)) ]

(* ------------------------------------------------------------------ *)
(* Statistical properties on random hierarchical instances *)

(* Random instances of the hierarchical Q = R1(x), R2(x): fact values
   drawn from a 3-element domain so matches (and the lineage) vary. *)
let gen_instance =
  let open QCheck.Gen in
  let vals =
    map
      (List.sort_uniq compare)
      (list_size (int_range 1 3) (int_range 1 3))
  in
  map2 (fun r1 r2 -> (r1, r2)) vals vals

let arb_instance =
  QCheck.make
    ~print:(fun (r1, r2) ->
      Printf.sprintf "R1=%s R2=%s"
        (String.concat "," (List.map string_of_int r1))
        (String.concat "," (List.map string_of_int r2)))
    gen_instance

let build_instance (r1, r2) =
  let db = Database.create () in
  Database.declare db "R1" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "R2" ~kind:Database.Endogenous ~arity:1;
  List.iter (fun v -> ignore (Database.insert db "R1" [| Value.int v |])) r1;
  List.iter (fun v -> ignore (Database.insert db "R2" [| Value.int v |])) r2;
  (db, Db_parser.parse_query "R1(x), R2(x)")

let statistical_tests =
  let delta = 0.05 in
  List.map
    (fun estimator ->
      let name = Sampling.estimator_name estimator in
      dtest
        ~seed:Sampling.(match estimator with Truncated -> 61 | Antithetic -> 62)
        ~count:6
        (Printf.sprintf "%s in-CI vs exact dichotomy (hierarchical)" name)
        arb_instance
        (fun inst ->
          let db, q = build_instance inst in
          let exact, solver = Dichotomy.shapley db q in
          assert (solver = Dichotomy.Safe_plan_circuit);
          let f = Lineage.lineage_formula db q in
          let vars = List.map fst exact in
          let r =
            Sampling.shap_estimate ~estimator ~seed:0 ~eps:0.1 ~delta ~vars f
          in
          let n = List.length r.estimates in
          let covered =
            List.length
              (List.filter
                 (fun (e : Sampling.estimate) ->
                   Float.abs
                     (e.value -. Rat.to_float (List.assoc e.variable exact))
                   <= e.half_width)
                 r.estimates)
          in
          float_of_int covered >= (1.0 -. delta) *. float_of_int n))
    all_estimators
  @ [ dtest ~seed:70 ~count:4 "jobs 1 = jobs 4 on random instances"
        arb_instance
        (fun inst ->
          let db, q = build_instance inst in
          let f = Lineage.lineage_formula db q in
          let vars = List.map fst (fst (Dichotomy.shapley db q)) in
          List.for_all
            (fun estimator ->
              let run jobs =
                with_jobs jobs (fun () ->
                    report_key
                      (Sampling.shap_estimate ~estimator ~seed:2
                         ~max_samples:700 ~vars f))
              in
              run 1 = run 4)
            all_estimators) ]

let suite =
  budget_tests @ convergence_tests @ estimator_tests @ statistical_tests

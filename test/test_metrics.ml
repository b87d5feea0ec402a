(** Metrics-layer tests.

    - [Histogram]: bucket geometry (every positive value lands in a
      bucket that contains it), merge as a commutative/associative
      monoid on counts, and the percentile guarantee: the reported
      quantile falls in the same bucket as the exact rank-statistic of
      the observed multiset; the bucket read off the float's bits
      equals the [frexp] formula, and an observation allocates nothing.
    - [Obs.allocated_bytes_now]: a fixed workload reads the same delta
      after any prior allocation.
    - [Metrics]: registry semantics (label canonicalization, kind
      clashes) and the OpenMetrics exposition round-tripping through
      the bundled parser; the [Obs] aggregates' JSON dump parses back
      through [Tiny_json].
    - Integration: profiling mode changes no results and no oracle-call
      totals; spans account self time; [Pool] utilization lands in the
      registry without touching the Obs ledgers. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

let hist_of obs =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) obs;
  h

(* Structural histogram equality: exact on counts and bucket contents,
   tolerant on the sum (float addition is commutative but not
   associative). *)
let hist_same a b =
  Histogram.count a = Histogram.count b
  && Histogram.buckets a = Histogram.buckets b
  && Float.abs (Histogram.sum a -. Histogram.sum b)
     <= 1e-9 *. Float.max 1.0 (Float.abs (Histogram.sum a))
  && (Histogram.count a = 0
      || (Histogram.min_value a = Histogram.min_value b
          && Histogram.max_value a = Histogram.max_value b))

(* ------------------------------------------------------------------ *)
(* Histogram unit tests *)

let histogram_tests =
  [ t "empty histogram" (fun () ->
        let h = Histogram.create () in
        Alcotest.(check int) "count" 0 (Histogram.count h);
        Alcotest.(check bool) "percentile nan" true
          (Float.is_nan (Histogram.percentile h 0.5));
        Alcotest.(check bool) "min nan" true
          (Float.is_nan (Histogram.min_value h)));
    t "observe and summarize" (fun () ->
        let h = hist_of [ 1.0; 2.0; 4.0 ] in
        Alcotest.(check int) "count" 3 (Histogram.count h);
        Alcotest.(check (float 1e-9)) "sum" 7.0 (Histogram.sum h);
        Alcotest.(check (float 0.0)) "min" 1.0 (Histogram.min_value h);
        Alcotest.(check (float 0.0)) "max" 4.0 (Histogram.max_value h);
        let s = Metrics.summary_of h in
        Alcotest.(check int) "s_count" 3 s.Metrics.s_count;
        Alcotest.(check bool) "p50 <= p90 <= p99 <= max" true
          (s.Metrics.s_p50 <= s.Metrics.s_p90
           && s.Metrics.s_p90 <= s.Metrics.s_p99
           && s.Metrics.s_p99 <= s.Metrics.s_max));
    t "zero, negative and NaN land in the zero bucket" (fun () ->
        let h = hist_of [ 0.0; -3.5; Float.nan ] in
        Alcotest.(check int) "count" 3 (Histogram.count h);
        (match Histogram.buckets h with
         | [ (ub, n) ] ->
           Alcotest.(check (float 0.0)) "zero bucket bound" 0.0 ub;
           Alcotest.(check int) "all three" 3 n
         | _ -> Alcotest.fail "expected exactly the zero bucket");
        Alcotest.(check (float 0.0)) "percentile 1.0 is 0" 0.0
          (Histogram.percentile h 1.0));
    t "bucket bounds contain their values" (fun () ->
        List.iter
          (fun v ->
             let i = Histogram.bucket_index v in
             Alcotest.(check bool) "index in range" true
               (i >= 0 && i < Histogram.num_buckets);
             let lo, hi = Histogram.bucket_bounds i in
             Alcotest.(check bool)
               (Printf.sprintf "%g in [%g, %g)" v lo hi)
               true
               (lo <= v && v < hi))
          [ 1e-9; 0.5; 0.75; 1.0; 1.5; 3.14; 1000.0; 1e10 ]) ]

(* ------------------------------------------------------------------ *)
(* The allocation counter, and an observation that allocates nothing   *)

(* The parent's [frexp] bucket formula (e_min -30, e_max 37, 8
   sub-buckets), the oracle for the bucket read off the float's bits. *)
let frexp_index v =
  if not (v > 0.) then -1
  else
    let m, e = Float.frexp v in
    if e < -30 then 0
    else if e > 37 then Histogram.num_buckets - 1
    else ((e + 30) * 8) + int_of_float ((m -. 0.5) *. 2. *. 8.)

let alloc_tests =
  [ t "allocation count repeats whatever was allocated before" (fun () ->
        (* ~4 MB, so minor collections fall inside the measured region *)
        let work () =
          ignore (Sys.opaque_identity (List.init 100_000 (fun i -> Some i)))
        in
        let delta_after prior =
          ignore (Sys.opaque_identity (List.init prior ref));
          let a0 = Obs.allocated_bytes_now () in
          work ();
          Obs.allocated_bytes_now () -. a0
        in
        let d = delta_after 0 in
        Alcotest.(check bool) "the workload's lists are counted" true
          (d >= 4e6);
        List.iter
          (fun prior ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "same delta after %d refs" prior)
              d (delta_after prior))
          [ 7; 20_000; 123_457; 0 ]);
    t "bucket from the float's bits equals frexp's" (fun () ->
        (* they differ on +infinity only, checked below *)
        let check v =
          if v <> Float.infinity && Histogram.bucket_index v <> frexp_index v
          then
            Alcotest.failf "%h: bits %d, frexp %d" v (Histogram.bucket_index v)
              (frexp_index v)
        in
        for k = -1080 to 1030 do
          for j = 0 to 64 do
            let v = Float.ldexp (1. +. (float_of_int j /. 64.)) k in
            check v;
            check (Float.pred v);
            check (Float.succ v)
          done
        done;
        let rng = Random.State.make [| 24 |] in
        for _ = 1 to 100_000 do
          check (Float.exp (Random.State.float rng 1500. -. 750.))
        done;
        List.iter check [ 0.; -1.; Float.nan; Float.min_float; Float.max_float ];
        Alcotest.(check int) "+infinity lands in the top bucket"
          (Histogram.num_buckets - 1)
          (Histogram.bucket_index Float.infinity));
    t "observe allocates nothing" (fun () ->
        let h = Histogram.create () in
        let v = Sys.opaque_identity 0.37 in
        let allocated n =
          let a0 = Obs.allocated_bytes_now () in
          for _ = 1 to n do
            Histogram.observe h v
          done;
          Obs.allocated_bytes_now () -. a0
        in
        Alcotest.(check (float 0.)) "N and 2N observations allocate alike"
          (allocated 1000) (allocated 2000);
        Alcotest.(check int) "all counted" 3000 (Histogram.count h)) ]

let gen_obs =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (map (fun x -> Float.exp x) (float_range (-8.0) 8.0)))

let arb_obs = QCheck.make ~print:QCheck.Print.(list float) gen_obs

let histogram_property_tests =
  [ qtest ~count:100 "merge is commutative"
      QCheck.(pair arb_obs arb_obs)
      (fun (a, b) ->
         let ha = hist_of a and hb = hist_of b in
         hist_same (Histogram.merge ha hb) (Histogram.merge hb ha));
    qtest ~count:100 "merge is associative"
      QCheck.(triple arb_obs arb_obs arb_obs)
      (fun (a, b, c) ->
         let ha = hist_of a and hb = hist_of b and hc = hist_of c in
         hist_same
           (Histogram.merge (Histogram.merge ha hb) hc)
           (Histogram.merge ha (Histogram.merge hb hc)));
    qtest ~count:100 "merge_into agrees with merge"
      QCheck.(pair arb_obs arb_obs)
      (fun (a, b) ->
         let into = hist_of a in
         Histogram.merge_into ~into (hist_of b);
         hist_same into (Histogram.merge (hist_of a) (hist_of b)));
    qtest ~count:200 "percentile lands in the exact rank's bucket"
      QCheck.(pair arb_obs (float_range 0.0 1.0))
      (fun (obs, q) ->
         let h = hist_of obs in
         let sorted = List.sort compare obs in
         let n = List.length sorted in
         let rank =
           min n (max 1 (int_of_float (Float.ceil (q *. float_of_int n))))
         in
         let exact = List.nth sorted (rank - 1) in
         Histogram.bucket_index (Histogram.percentile h q)
         = Histogram.bucket_index exact) ]

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let registry_tests =
  [ t "counters accumulate; labels canonicalize" (fun () ->
        let r = Metrics.create () in
        Metrics.inc ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "hits";
        Metrics.inc ~registry:r ~labels:[ ("a", "1"); ("b", "2") ] ~by:2.5
          "hits";
        Alcotest.(check (float 0.0)) "one cell" 3.5
          (Metrics.counter_total ~registry:r "hits");
        Alcotest.(check int) "one dump row" 1
          (List.length (Metrics.dump ~registry:r ())));
    t "gauges overwrite" (fun () ->
        let r = Metrics.create () in
        Metrics.set ~registry:r "depth" 3.0;
        Metrics.set ~registry:r "depth" 7.0;
        Alcotest.(check (option (float 0.0))) "latest wins" (Some 7.0)
          (Metrics.gauge_value ~registry:r "depth"));
    t "kind clash raises" (fun () ->
        let r = Metrics.create () in
        Metrics.inc ~registry:r "x";
        (match Metrics.set ~registry:r "x" 1.0 with
         | () -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()));
    t "reset drops everything" (fun () ->
        let r = Metrics.create () in
        Metrics.inc ~registry:r "a";
        Metrics.observe ~registry:r "b" 1.0;
        Metrics.reset ~registry:r ();
        Alcotest.(check int) "empty" 0
          (List.length (Metrics.dump ~registry:r ()))) ]

(* ------------------------------------------------------------------ *)
(* Exposition formats *)

let sample name labels samples =
  List.find_opt
    (fun s ->
       s.Metrics.om_name = name
       && List.for_all
            (fun (k, v) -> List.assoc_opt k s.Metrics.om_labels = Some v)
            labels)
    samples

let exposition_tests =
  [ t "OpenMetrics round-trips through the parser" (fun () ->
        let r = Metrics.create () in
        Metrics.inc ~registry:r
          ~labels:[ ("oracle", "dpll"); ("lemma", "3.3") ]
          ~by:13.0 "oracle_calls";
        Metrics.set ~registry:r "gc_allocated_bytes" 1.5e6;
        List.iter
          (Metrics.observe ~registry:r "latency_seconds")
          [ 0.001; 0.01; 0.1; 0.1 ];
        let text = Metrics.to_openmetrics ~registry:r () in
        Alcotest.(check bool) "ends with # EOF" true
          (let n = String.length text in
           n >= 6 && String.sub text (n - 6) 6 = "# EOF\n");
        let samples = Metrics.parse_openmetrics text in
        (match
           sample "shapmc_oracle_calls_total"
             [ ("oracle", "dpll"); ("lemma", "3.3") ]
             samples
         with
         | Some s ->
           Alcotest.(check (float 0.0)) "counter value" 13.0
             s.Metrics.om_value
         | None -> Alcotest.fail "counter sample missing");
        (match sample "shapmc_gc_allocated_bytes" [] samples with
         | Some s ->
           Alcotest.(check (float 0.0)) "gauge value" 1.5e6
             s.Metrics.om_value
         | None -> Alcotest.fail "gauge sample missing");
        (match sample "shapmc_latency_seconds_count" [] samples with
         | Some s ->
           Alcotest.(check (float 0.0)) "histogram count" 4.0
             s.Metrics.om_value
         | None -> Alcotest.fail "histogram count missing");
        (match sample "shapmc_latency_seconds_sum" [] samples with
         | Some s ->
           Alcotest.(check (float 1e-9)) "histogram sum" 0.211
             s.Metrics.om_value
         | None -> Alcotest.fail "histogram sum missing");
        (* cumulative buckets: non-decreasing, +Inf closes at the count *)
        let buckets =
          List.filter
            (fun s -> s.Metrics.om_name = "shapmc_latency_seconds_bucket")
            samples
        in
        Alcotest.(check bool) "has buckets" true (buckets <> []);
        let values = List.map (fun s -> s.Metrics.om_value) buckets in
        Alcotest.(check bool) "cumulative non-decreasing" true
          (List.sort compare values = values);
        (match
           List.find_opt
             (fun s ->
                List.assoc_opt "le" s.Metrics.om_labels = Some "+Inf")
             buckets
         with
         | Some s ->
           Alcotest.(check (float 0.0)) "+Inf bucket = count" 4.0
             s.Metrics.om_value
         | None -> Alcotest.fail "+Inf bucket missing"));
    t "escaped label values round-trip" (fun () ->
        let r = Metrics.create () in
        let ugly = "a\"b\\c\nd" in
        Metrics.inc ~registry:r ~labels:[ ("k", ugly) ] "weird";
        let samples =
          Metrics.parse_openmetrics (Metrics.to_openmetrics ~registry:r ())
        in
        match sample "shapmc_weird_total" [] samples with
        | Some s ->
          Alcotest.(check (option string)) "label survives" (Some ugly)
            (List.assoc_opt "k" s.Metrics.om_labels)
        | None -> Alcotest.fail "sample missing");
    t "malformed exposition raises" (fun () ->
        match Metrics.parse_openmetrics "shapmc_x{unclosed 1\n" with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ());
    t "Obs.to_json dump parses with Tiny_json" (fun () ->
        Obs.reset ();
        Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
             Obs.add "hits" 3;
             Obs.with_span "outer" (fun () ->
                 Obs.record ~oracle:"dpll" ~n:4 ~arity:2 ~size:9
                   ~seconds:1e-7 ());
             Obs.record_subst ~kind:"formula.or" ~pre:1 ~post:2 ~fresh:1 ();
             let doc =
               match Tiny_json.parse_opt (Obs.to_json ()) with
               | Some d -> d
               | None -> Alcotest.fail "Obs.to_json did not parse"
             in
             let at keys =
               List.fold_left
                 (fun d k -> Option.bind d (Tiny_json.member k))
                 (Some doc) keys
             in
             let int_at keys = Option.bind (at keys) Tiny_json.to_int in
             Alcotest.(check (option int)) "counter" (Some 3)
               (int_at [ "counters"; "hits" ]);
             Alcotest.(check (option int)) "span calls" (Some 1)
               (int_at [ "spans"; "outer"; "calls" ]);
             Alcotest.(check (option int)) "oracle calls" (Some 1)
               (int_at [ "oracle_calls"; "dpll"; "calls" ]);
             Alcotest.(check (option int)) "oracle l_max" (Some 2)
               (int_at [ "oracle_calls"; "dpll"; "l_max" ]);
             Alcotest.(check (option int)) "calls_total" (Some 1)
               (int_at [ "calls_total" ]);
             (* floats print round-trip, so a sub-microsecond call keeps
                its time *)
             Alcotest.(check (option (float 0.0))) "oracle seconds"
               (Some 1e-7)
               (Option.bind (at [ "oracle_calls"; "dpll"; "seconds" ])
                  Tiny_json.to_float);
             (* individual calls and substitutions live only in event
                buffers *)
             List.iter
               (fun k ->
                  Alcotest.(check bool) (k ^ " absent") true
                    (Tiny_json.member k doc = None))
               [ "calls"; "substs"; "calls_dropped"; "substs_dropped" ])) ]

(* ------------------------------------------------------------------ *)
(* Integration with the instrumentation layer *)

let universe n = List.init n succ

let shap_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, x) (j, y) -> i = j && Rat.equal x y)
       (List.sort compare a) (List.sort compare b)

(* Run [f] under one observability regime, returning its result and the
   ledger's call total (-1 when the ledger is off). *)
let run_under regime f =
  Obs.reset ();
  match regime with
  | `Off ->
    let r = f () in
    (r, -1)
  | `Stats | `Profile ->
    Obs.enable ();
    Obs.set_profiling (regime = `Profile);
    Fun.protect
      ~finally:(fun () ->
        Obs.set_profiling false;
        Obs.disable ();
        Obs.reset ())
      (fun () ->
         let r = f () in
         (r, Obs.call_count ()))

let integration_tests =
  [ qtest ~count:15 "profiling changes no results and no call totals"
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         let run () =
           Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
             ~vars:(universe 3) f
         in
         let r_off, _ = run_under `Off run in
         let r_stats, c_stats = run_under `Stats run in
         let r_prof, c_prof = run_under `Profile run in
         shap_eq r_off r_stats && shap_eq r_off r_prof && c_stats = c_prof);
    t "spans record self time" (fun () ->
        let burn k =
          let acc = ref 0 in
          for i = 1 to k do
            acc := !acc + i
          done;
          ignore !acc
        in
        Obs.reset ();
        Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
             Obs.with_span "outer" (fun () ->
                 burn 100_000;
                 Obs.with_span "inner" (fun () -> burn 100_000));
             let find p =
               match
                 List.find_opt
                   (fun s -> s.Obs.span_path = p)
                   (Obs.spans ())
               with
               | Some s -> s
               | None -> Alcotest.failf "span %s missing" p
             in
             let outer = find "outer" and inner = find "outer/inner" in
             Alcotest.(check bool) "self <= total" true
               (outer.Obs.span_self_seconds
                <= outer.Obs.span_seconds +. 1e-9);
             Alcotest.(check bool) "outer self = total - inner" true
               (Float.abs
                  (outer.Obs.span_self_seconds
                   -. (outer.Obs.span_seconds -. inner.Obs.span_seconds))
                <= 1e-9);
             (* the same self time reached the registry, per span label *)
             List.iter
               (fun p ->
                  Alcotest.(check bool)
                    (Printf.sprintf "histogram for %s" p)
                    true
                    (List.exists
                       (fun (labels, _) ->
                          List.assoc_opt "span" labels = Some p)
                       (Metrics.find_histograms "span_self_seconds")))
               [ "outer"; "outer/inner" ]));
    t "pool utilization lands in the registry, not the ledgers" (fun () ->
        Obs.reset ();
        Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
             let p = Pool.create ~jobs:4 in
             let xs = Array.init 32 (fun i -> i) in
             let _ = Pool.map p (fun i -> i * i) xs in
             Alcotest.(check (float 0.0)) "every task counted" 32.0
               (Metrics.counter_total "pool_worker_tasks");
             Alcotest.(check (float 0.0)) "one map" 1.0
               (Metrics.counter_total "pool_maps");
             Alcotest.(check bool) "busy time accounted" true
               (Metrics.counter_total "pool_worker_busy_seconds" >= 0.0);
             (* the Obs side of the fence stayed clean: pool accounting
                must never perturb the jobs-independence guarantees *)
             Alcotest.(check int) "no ledger calls" 0 (Obs.call_count ());
             Alcotest.(check int) "no counters" 0
               (List.length (Obs.counters ()))));
    t "Obs.reset clears the registry" (fun () ->
        Metrics.inc "stale";
        Obs.reset ();
        Alcotest.(check (float 0.0)) "gone" 0.0
          (Metrics.counter_total "stale")) ]

let suite =
  histogram_tests @ alloc_tests @ histogram_property_tests @ registry_tests
  @ exposition_tests @ integration_tests

(** Trace-subsystem tests.

    - Golden event skeleton: tracing a Lemma 3.3 / Lemma 3.2 pipeline
      run yields the phases in proof order and exactly the oracle events
      the lemmas' call budgets allow — [n + 1] count-oracle events at
      arities [1..n+1] (each tagged [lemma=3.3]), [(n + 1) + n²] for the
      full Shapley chain — in exact agreement with the [Obs] ledger.
    - Serialization: JSONL round-trips structurally; the Chrome
      [trace_event] export is valid JSON with balanced B/E span pairs.
    - Bounds: the trace stream caps its memory and counts drops; the
      oracle and substitution aggregates (the stream's and Obs's) stay
      exact past the cap.
    - Clocks: negative durations (non-monotone [Unix.gettimeofday]) and
      pre-start timestamps clamp to [0]; non-finite floats serialize as
      valid JSON. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

(* Run [f stream] with the Obs ledger enabled and [stream] recording;
   always restore the disabled defaults so other suites are
   unaffected. *)
let with_traced ?cap f =
  let stream = Trace.create ?cap () in
  Obs.reset ();
  Obs.enable ();
  Obs.set_trace (Some stream);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace None;
      Obs.disable ();
      Obs.reset ())
    (fun () -> f stream)

let events_of_kind k evs = List.filter (fun e -> e.Trace.kind = k) evs

let attr name e = List.assoc_opt name e.Trace.attrs

let int_attr name e =
  match attr name e with
  | Some (Trace.Int i) -> i
  | _ -> Alcotest.failf "event %s lacks int attr %s" e.Trace.name name

(* ------------------------------------------------------------------ *)
(* Golden skeletons *)

let lemma33_skeleton n =
  let st = Random.State.make [| 333; n |] in
  let f =
    QCheck.Gen.generate1 ~rand:st (Helpers.gen_formula ~nvars:n ~depth:n)
  in
  let vars = List.init n succ in
  with_traced (fun stream ->
      let _ =
        Pipeline.kcounts_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
          ~vars f
      in
      let evs = Trace.events stream in
      (* chronology: seq is 0..N-1 in order, depths non-negative *)
      List.iteri
        (fun i e ->
           Alcotest.(check int) "seq contiguous" i e.Trace.seq;
           Alcotest.(check bool) "depth >= 0" true (e.Trace.depth >= 0))
        evs;
      (* spans balance *)
      Alcotest.(check int) "span begin/end balance"
        (List.length (events_of_kind Trace.Span_begin evs))
        (List.length (events_of_kind Trace.Span_end evs));
      (* the proof's phases, in proof order *)
      let phases =
        List.map (fun e -> e.Trace.name) (events_of_kind Trace.Phase evs)
      in
      Alcotest.(check (list string))
        "consult then solve"
        [ "lemma3.3.consult"; "lemma3.3.solve" ]
        phases;
      (* exactly n+1 oracle events at arities 1..n+1, each owning its
         lemma tag and a positive duration *)
      let oracles = events_of_kind Trace.Oracle evs in
      Alcotest.(check int) "n+1 oracle events" (n + 1) (List.length oracles);
      Alcotest.(check (list int))
        "arities 1..n+1"
        (List.init (n + 1) succ)
        (List.sort compare (List.map (int_attr "l") oracles));
      List.iter
        (fun e ->
           Alcotest.(check string) "oracle name" "dpll" e.Trace.name;
           Alcotest.(check (option string))
             "lemma tag"
             (Some "3.3")
             (match attr "lemma" e with
              | Some (Trace.Str s) -> Some s
              | _ -> None);
           Alcotest.(check int) "n = n·l" (n * int_attr "l" e) (int_attr "n" e);
           match e.Trace.dur with
           | Some d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.0)
           | None -> Alcotest.fail "oracle event lacks a duration")
        oracles;
      (* the trace agrees with the Obs ledger *)
      Alcotest.(check int) "trace = ledger" (Obs.call_count ())
        (List.length oracles))

let lemma32_skeleton n =
  let st = Random.State.make [| 322; n |] in
  let f =
    QCheck.Gen.generate1 ~rand:st (Helpers.gen_formula ~nvars:n ~depth:n)
  in
  let vars = List.init n succ in
  with_traced (fun stream ->
      let _ =
        Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
          ~vars f
      in
      let evs = Trace.events stream in
      let oracles = events_of_kind Trace.Oracle evs in
      (* Theorem 3.1's budget: n+1 calls for #_* of the copy, then n
         zapped instances of n+1... minus the shared solve — the paper's
         (n+1) + n² total, in the stream and in the ledger alike *)
      Alcotest.(check int) "(n+1) + n^2 oracle events"
        ((n + 1) + (n * n))
        (List.length oracles);
      Alcotest.(check int) "trace = ledger" (Obs.call_count ())
        (List.length oracles);
      let phases =
        List.map (fun e -> e.Trace.name) (events_of_kind Trace.Phase evs)
      in
      (* the full-kcounts phase precedes every drop phase; one drop per
         variable *)
      (match phases with
       | "lemma3.2.full" :: rest ->
         Alcotest.(check int) "n drop phases" n
           (List.length (List.filter (( = ) "lemma3.2.drop") rest))
       | _ -> Alcotest.fail "first phase is not lemma3.2.full");
      (* every drop phase names the dropped variable *)
      let dropped =
        List.filter_map
          (fun e ->
             if e.Trace.kind = Trace.Phase && e.Trace.name = "lemma3.2.drop"
             then Some (int_attr "i" e)
             else None)
          evs
      in
      Alcotest.(check (list int)) "drops cover the universe" vars
        (List.sort compare dropped))

(* The PQE route shares the Lemma 3.2 core, so its trace carries the
   same phase skeleton: one full phase, then one drop phase per
   variable, over (n+1) + n² probability-oracle events (the full
   kcounts take n+1 θ-points, each dropped formula n). *)
let pqe_skeleton n =
  let st = Random.State.make [| 313; n |] in
  let f =
    QCheck.Gen.generate1 ~rand:st (Helpers.gen_formula ~nvars:n ~depth:n)
  in
  let vars = List.init n succ in
  with_traced (fun stream ->
      let _ =
        Pipeline.shap_via_pqe_oracle ~oracle:Pipeline.pqe_circuit_oracle
          ~vars f
      in
      let evs = Trace.events stream in
      let oracles = events_of_kind Trace.Oracle evs in
      Alcotest.(check int) "(n+1) + n^2 oracle events"
        ((n + 1) + (n * n))
        (List.length oracles);
      List.iter
        (fun e ->
           Alcotest.(check string) "oracle name" "compiled-circuit"
             e.Trace.name)
        oracles;
      Alcotest.(check int) "trace = ledger" (Obs.call_count ())
        (List.length oracles);
      let phases =
        List.map (fun e -> e.Trace.name) (events_of_kind Trace.Phase evs)
      in
      (match phases with
       | "lemma3.2.full" :: rest ->
         Alcotest.(check int) "n drop phases" n
           (List.length (List.filter (( = ) "lemma3.2.drop") rest))
       | _ -> Alcotest.fail "first phase is not lemma3.2.full");
      let dropped =
        List.filter_map
          (fun e ->
             if e.Trace.kind = Trace.Phase && e.Trace.name = "lemma3.2.drop"
             then Some (int_attr "i" e)
             else None)
          evs
      in
      Alcotest.(check (list int)) "drops cover the universe" vars
        (List.sort compare dropped))

let skeleton_tests =
  List.map
    (fun n -> t (Printf.sprintf "Lemma 3.3 skeleton, n = %d" n) (fun () ->
         lemma33_skeleton n))
    [ 2; 3; 4 ]
  @ List.map
      (fun n -> t (Printf.sprintf "Lemma 3.2 skeleton, n = %d" n) (fun () ->
           lemma32_skeleton n))
      [ 2; 3 ]
  @ List.map
      (fun n -> t (Printf.sprintf "PQE route skeleton, n = %d" n) (fun () ->
           pqe_skeleton n))
      [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Gating: tracing rides on the Obs instrumentation, so a recording
   trace sees nothing while Obs is disabled; and with tracing off the
   instrumented paths leave no stream behind. *)

let gating_tests =
  [ t "no events while Obs is disabled" (fun () ->
        Obs.reset ();
        Obs.disable ();
        let stream = Trace.create () in
        Obs.set_trace (Some stream);
        Fun.protect ~finally:(fun () -> Obs.set_trace None) (fun () ->
            let _ =
              Pipeline.kcounts_via_count_oracle
                ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2 ]
                (Parser.formula_of_string_exn "x1 & x2")
            in
            (* a convergence monitor checkpoints through Obs too: 6
               samples at interval 2 are 3 checkpoints, none recorded *)
            let m =
              Convergence.create ~interval:2 ~estimator:"gated" ~players:1 ()
            in
            for _ = 1 to 6 do
              Convergence.observe m ~player:0 0.5;
              Convergence.advance m 1
            done;
            Alcotest.(check int) "checkpoints emitted" 3
              (Convergence.emitted m);
            Alcotest.(check int) "empty stream" 0
              (List.length (Trace.events stream))));
    t "no recording, no stream" (fun () ->
        Obs.reset ();
        Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
             let stream = Trace.create () in
             Obs.set_trace (Some stream);
             Obs.set_trace None;
             let _ =
               Pipeline.kcounts_via_count_oracle
                 ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2 ]
                 (Parser.formula_of_string_exn "x1 | x2")
             in
             Alcotest.(check int) "not recording" 0 (Trace.emitted stream);
             Alcotest.(check int) "empty stream" 0
               (List.length (Trace.events stream));
             (* the ledger still filled up *)
             Alcotest.(check int) "ledger saw the calls" 3
               (Obs.call_count ())));
    t "kind names round-trip" (fun () ->
        List.iter
          (fun k ->
             Alcotest.(check bool) "kind_of_name inverts kind_name" true
               (Trace.kind_of_name (Trace.kind_name k) = Some k))
          [ Trace.Span_begin; Trace.Span_end; Trace.Oracle; Trace.Subst;
            Trace.Phase; Trace.Counter ];
        Alcotest.(check bool) "unknown kind rejected" true
          (Trace.kind_of_name "nonsense" = None)) ]

(* ------------------------------------------------------------------ *)
(* Bounds: the stream caps; aggregates stay exact *)

let bound_tests =
  [ t "trace stream caps and counts drops" (fun () ->
        with_traced ~cap:10 (fun stream ->
            for i = 1 to 25 do
              Obs.phase (Printf.sprintf "p%d" i)
            done;
            Alcotest.(check int) "stored" 10
              (List.length (Trace.events stream));
            Alcotest.(check int) "emitted" 25 (Trace.emitted stream);
            Alcotest.(check int) "dropped" 15 (Trace.dropped stream);
            (* the kept prefix is the chronological head *)
            Alcotest.(check string) "first kept" "p1"
              (List.hd (Trace.events stream)).Trace.name));
    t "oracle events cap, aggregates stay exact" (fun () ->
        with_traced ~cap:8 (fun stream ->
            for i = 1 to 20 do
              Obs.record ~oracle:"o" ~n:i ~arity:1 ~size:i ~seconds:0.001 ()
            done;
            Alcotest.(check int) "stored" 8 (List.length (Trace.events stream));
            Alcotest.(check int) "dropped counted" 12 (Trace.dropped stream);
            Alcotest.(check int) "first kept" 1
              (int_attr "n" (List.hd (Trace.events stream)));
            Alcotest.(check int) "stream calls exact past the cap" 20
              (Trace.oracle_calls stream);
            Alcotest.(check (float 1e-9)) "stream seconds exact past the cap"
              0.02 (Trace.oracle_seconds stream);
            Alcotest.(check int) "call_count exact" 20 (Obs.call_count ());
            match Obs.aggregate () with
            | [ ("o", a) ] ->
              Alcotest.(check int) "aggregate calls exact" 20 a.Obs.a_calls;
              Alcotest.(check int) "aggregate n_max exact" 20 a.Obs.a_n_max
            | _ -> Alcotest.fail "expected one aggregate"));
    t "subst events cap, aggregates stay exact" (fun () ->
        with_traced ~cap:4 (fun stream ->
            for i = 1 to 10 do
              Obs.record_subst ~width:2 ~kind:"formula.or" ~pre:i
                ~post:(2 * i) ~fresh:i ()
            done;
            Alcotest.(check int) "stored" 4 (List.length (Trace.events stream));
            Alcotest.(check int) "dropped counted" 6 (Trace.dropped stream);
            Alcotest.(check int) "first kept" 1
              (int_attr "pre" (List.hd (Trace.events stream)));
            (* the report's row: count, max pre, max post, Σ fresh *)
            let words l =
              List.filter (( <> ) "") (String.split_on_char ' ' l)
            in
            let row =
              List.find_opt
                (fun l ->
                   match words l with "formula.or" :: _ -> true | _ -> false)
                (String.split_on_char '\n' (Obs.report ()))
            in
            Alcotest.(check (option (list string))) "aggregate exact"
              (Some [ "formula.or"; "10"; "10"; "20"; "55" ])
              (Option.map words row);
            match Metrics.find_histograms "subst_post_size" with
            | [ (_, h) ] ->
              Alcotest.(check int) "post-size histogram exact" 10
                (Histogram.count h)
            | _ -> Alcotest.fail "expected one subst_post_size series")) ]

(* ------------------------------------------------------------------ *)
(* Clock clamps and non-finite floats *)

let clamp_tests =
  [ t "negative oracle seconds clamp to 0" (fun () ->
        with_traced (fun stream ->
            Obs.record ~oracle:"o" ~n:1 ~seconds:(-5.0) ();
            (match Trace.events stream with
             | [ e ] ->
               Alcotest.(check (option (float 0.0))) "clamped" (Some 0.0)
                 e.Trace.dur
             | _ -> Alcotest.fail "expected one call");
            match Obs.aggregate () with
            | [ (_, a) ] ->
              Alcotest.(check (float 0.0)) "aggregate clamped" 0.0
                a.Obs.a_seconds
            | _ -> Alcotest.fail "expected one aggregate"));
    t "pre-start timestamps clamp to 0" (fun () ->
        with_traced (fun stream ->
            (* the Unix epoch is long before the buffer's time zero *)
            Trace.emit stream ~at:0.0 ~kind:Trace.Phase "past";
            match Trace.events stream with
            | [ e ] -> Alcotest.(check (float 0.0)) "clamped" 0.0 e.Trace.at
            | _ -> Alcotest.fail "expected one event"));
    t "json_float emits valid JSON for non-finite values" (fun () ->
        Alcotest.(check string) "nan" "null" (Obs.json_float Float.nan);
        Alcotest.(check string) "inf" "1.0e308"
          (Obs.json_float Float.infinity);
        Alcotest.(check string) "-inf" "-1.0e308"
          (Obs.json_float Float.neg_infinity);
        match Tiny_json.parse_opt (Obs.json_float 1.5) with
        | Some (Tiny_json.Float f) ->
          Alcotest.(check (float 0.0)) "finite round-trip" 1.5 f
        | _ -> Alcotest.fail "finite float did not parse");
    t "non-finite event payloads still export as JSON" (fun () ->
        let e =
          { Trace.seq = 0; at = 0.0; depth = 0; kind = Trace.Oracle;
            name = "o"; dur = Some Float.nan;
            attrs = [ ("x", Trace.Float Float.infinity) ] }
        in
        Alcotest.(check bool) "jsonl parses" true
          (Tiny_json.parse_opt (Trace_export.jsonl [ e ]) <> None);
        Alcotest.(check bool) "chrome parses" true
          (Tiny_json.parse_opt (Trace_export.chrome [ e ]) <> None)) ]

(* ------------------------------------------------------------------ *)
(* Serialization: Chrome validity on a real run; JSONL round-trip as a
   property over random streams with finite floats *)

let chrome_tests =
  [ t "chrome export of a traced reduction is valid JSON" (fun () ->
        with_traced (fun stream ->
            let _ =
              Pipeline.shap_via_count_oracle
                ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2; 3 ]
                Helpers.example2_formula
            in
            let evs = Trace.events stream in
            let doc =
              match Tiny_json.parse_opt (Trace_export.chrome evs) with
              | Some d -> d
              | None -> Alcotest.fail "chrome export did not parse"
            in
            let records =
              match
                Option.bind (Tiny_json.member "traceEvents" doc)
                  Tiny_json.to_list
              with
              | Some l -> l
              | None -> Alcotest.fail "no traceEvents array"
            in
            let ph r =
              match Option.bind (Tiny_json.member "ph" r) Tiny_json.to_str
              with
              | Some p -> p
              | None -> Alcotest.fail "record without ph"
            in
            let count p = List.length (List.filter (fun r -> ph r = p) records)
            in
            Alcotest.(check int) "one metadata record" 1 (count "M");
            Alcotest.(check int) "B/E balanced" (count "B") (count "E");
            Alcotest.(check int) "one X per oracle event"
              (List.length (events_of_kind Trace.Oracle evs))
              (count "X");
            Alcotest.(check int) "every event serialized"
              (List.length evs + 1)
              (List.length records))) ]

(* Finite floats that survive %.17g round-tripping exactly. *)
let gen_finite_float =
  QCheck.Gen.(
    map2
      (fun a b -> float_of_int a /. float_of_int (1 + abs b))
      (int_range (-1_000_000) 1_000_000)
      (int_range 0 1000))

let gen_value =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Trace.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Trace.Float f) gen_finite_float;
        map (fun s -> Trace.Str s)
          (string_size ~gen:printable (int_range 0 12));
        map (fun b -> Trace.Bool b) bool ])

let gen_event =
  QCheck.Gen.(
    let* kind =
      oneofl
        [ Trace.Span_begin; Trace.Span_end; Trace.Oracle; Trace.Subst;
          Trace.Phase; Trace.Counter ]
    in
    let* name = string_size ~gen:printable (int_range 1 16) in
    let* at = gen_finite_float in
    let* depth = int_range 0 6 in
    let* dur = opt gen_finite_float in
    let* attrs =
      list_size (int_range 0 4)
        (pair (string_size ~gen:printable (int_range 1 8)) gen_value)
    in
    return
      { Trace.seq = 0; at = Float.abs at; depth; kind; name; dur; attrs })

let gen_stream =
  QCheck.Gen.(
    map
      (List.mapi (fun i e -> { e with Trace.seq = i }))
      (list_size (int_range 0 20) gen_event))

let arb_stream =
  QCheck.make
    ~print:(fun evs -> Trace_export.jsonl evs)
    gen_stream

let roundtrip_tests =
  [ qtest ~count:200 "JSONL round-trips structurally" arb_stream (fun evs ->
        Trace_export.events_of_jsonl (Trace_export.jsonl evs) = evs);
    qtest ~count:200 "chrome export always parses" arb_stream (fun evs ->
        Tiny_json.parse_opt (Trace_export.chrome evs) <> None);
    t "report renders a round-tripped stream" (fun () ->
        with_traced (fun stream ->
            let _ =
              Pipeline.kcounts_via_count_oracle
                ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2; 3 ]
                Helpers.example2_formula
            in
            let evs = Trace.events stream in
            let back =
              Trace_export.events_of_jsonl (Trace_export.jsonl evs)
            in
            Alcotest.(check bool) "stream survives" true (back = evs);
            let r = Trace_export.report back in
            List.iter
              (fun affix ->
                 Alcotest.(check bool) affix true
                   (let n = String.length affix and m = String.length r in
                    let rec go i =
                      i + n <= m && (String.sub r i n = affix || go (i + 1))
                    in
                    go 0))
              [ "lemma3.3.consult"; "lemma3.3.solve"; "oracle totals";
                "per-phase aggregates"; "dpll" ])) ]

(* ------------------------------------------------------------------ *)
(* The JSONL meta line: written files carry stored/dropped bookkeeping
   that survives a round trip; the report surfaces drops as a banner. *)

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let meta_tests =
  [ t "write_file records drops; read_jsonl_file_full recovers them"
      (fun () ->
         let evs = QCheck.Gen.generate1 ~rand:(Random.State.make [| 77 |])
             gen_stream
         in
         (* the stream twice into a buffer that holds it once *)
         let b = Trace.create ~cap:(List.length evs) () in
         List.iter
           (fun (e : Trace.event) ->
              Trace.emit b ?dur:e.Trace.dur ~attrs:e.Trace.attrs
                ~kind:e.Trace.kind e.Trace.name)
           (evs @ evs);
         Alcotest.(check bool) "some dropped" true (Trace.dropped b > 0);
         let path = Filename.temp_file "shapmc_trace" ".jsonl" in
         Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
             Trace_export.write_file ~path b;
             let back, totals = Trace_export.read_jsonl_file_full path in
             Alcotest.(check bool) "totals recovered" true
               (totals
                = Some
                    { Trace_export.dropped = Trace.dropped b;
                      oracle_calls = Trace.oracle_calls b;
                      oracle_seconds = Trace.oracle_seconds b });
             Alcotest.(check bool) "events survive" true
               (back = Trace.events b);
             (* the event reader skips the meta line silently *)
             Alcotest.(check bool) "event reader agrees" true
               (Trace_export.events_of_jsonl
                  (In_channel.with_open_bin path In_channel.input_all)
                = back)));
    t "jsonl stays pure: no meta line without write_file" (fun () ->
        let evs = QCheck.Gen.generate1 ~rand:(Random.State.make [| 78 |])
            gen_stream
        in
        Alcotest.(check bool) "no meta in jsonl output" true
          (not (contains "\"meta\"" (Trace_export.jsonl evs))));
    t "report banners dropped events" (fun () ->
        let totals dropped =
          { Trace_export.dropped; oracle_calls = 9; oracle_seconds = 0.002 }
        in
        let r = Trace_export.report ~totals:(totals 7) [] in
        Alcotest.(check bool) "banner present" true
          (contains
             "WARNING: 7 events dropped at the cap.  The timeline and every \
              total below cover the 0 stored events only.\n\
              Exact over the whole run: 9 oracle calls, 2.000 oracle-ms."
             r);
        Alcotest.(check bool) "no banner at zero" true
          (not
             (contains "WARNING" (Trace_export.report ~totals:(totals 0) [])));
        Alcotest.(check bool) "no banner without totals" true
          (not (contains "WARNING" (Trace_export.report []))));
    t "report --percentiles totals match the oracle events" (fun () ->
        with_traced (fun stream ->
            let _ =
              Pipeline.shap_via_count_oracle
                ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2; 3 ]
                Helpers.example2_formula
            in
            let evs = Trace.events stream in
            let r = Trace_export.report ~percentiles:true evs in
            Alcotest.(check bool) "percentile section present" true
              (contains "oracle latency percentiles" r);
            (* the TOTAL row's call count equals the ledger's *)
            Alcotest.(check bool) "TOTAL row carries 13 calls" true
              (contains "TOTAL" r && Obs.call_count () = 13))) ]

(* A replayed stream that overflowed its buffer still reports the run's
   exact oracle totals, beside the stored events' own. *)
let replay_tests =
  [ t "a replayed cap-8 stream of 20 oracle calls reports 20" (fun () ->
        let b = Trace.create ~cap:8 () in
        for _ = 1 to 20 do
          Trace.emit b ~dur:0.001 ~kind:Trace.Oracle "dpll"
        done;
        let path = Filename.temp_file "shapmc_trace" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            Trace_export.write_file ~path b;
            let events, totals = Trace_export.read_jsonl_file_full path in
            let r = Trace_export.report ?totals events in
            Alcotest.(check bool) "20 exact calls" true
              (contains "Exact over the whole run: 20 oracle calls" r);
            Alcotest.(check bool) "8 stored calls" true
              (contains "cover the 8 stored events only" r
               && contains "dpll                                8" r))) ]

let suite =
  skeleton_tests @ gating_tests @ bound_tests @ clamp_tests @ chrome_tests
  @ roundtrip_tests @ meta_tests @ replay_tests

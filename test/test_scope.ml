(** Request-scoped observability: a request's {!Trace} buffer installed
    with {!Obs.with_request}, and its propagation across the fan-out
    seams.

    - Request capture is independent of the global [Obs] switch, and
      never leaks into the global ledgers/stream.
    - The event buffer is bounded; oracle aggregates stay exact past
      the cap.
    - Installation nests and restores, also across raises.
    - [Par.map] and [Pool.Exec.submit] re-install the caller's context
      (span stack and request buffer) in the worker domains (the
      [Pool.Exec] half is the regression test for workers previously
      dropping the caller's context).
    - One event reaches both buffers: the [--trace] stream and the
      request buffer record the same sequence. *)

let t name f = Alcotest.test_case name `Quick f

let req_attr (e : Trace.event) =
  match List.assoc_opt "req" e.Trace.attrs with
  | Some (Trace.Str id) -> Some id
  | _ -> None

(* Every test here must leave the global switch off and the ledgers
   clean, whatever it toggled. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.disable ();
      Obs.reset ();
      f ())

let scope_captures_while_obs_disabled () =
  with_clean_obs (fun () ->
      let sc = Trace.create ~req:"req-1" () in
      Alcotest.(check bool) "inactive before install" false (Obs.observing ());
      Obs.with_request sc (fun () ->
          Alcotest.(check bool) "active inside" true (Obs.observing ());
          Obs.with_span "work" (fun () ->
              Obs.record ~oracle:"dpll" ~n:3 ~seconds:0.25 ();
              Obs.incr "oracle_hits");
          Obs.phase "done");
      Alcotest.(check bool) "inactive after" false (Obs.observing ());
      (* captured: span begin/end + oracle + counter + phase *)
      let events = Trace.events sc in
      Alcotest.(check int) "five events stored" 5 (List.length events);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "req attr on every event"
            (Some "req-1") (req_attr e))
        events;
      let kinds = List.map (fun e -> Trace.kind_name e.Trace.kind) events in
      Alcotest.(check (list string)) "event kinds in order"
        [ "span_begin"; "oracle"; "counter"; "span_end"; "phase" ]
        kinds;
      Alcotest.(check int) "oracle calls aggregated" 1 (Trace.oracle_calls sc);
      Alcotest.(check (float 1e-9)) "oracle seconds aggregated" 0.25
        (Trace.oracle_seconds sc);
      (* ...and none of it reached the global side *)
      Alcotest.(check int) "global ledger untouched" 0 (Obs.call_count ());
      Alcotest.(check int) "global counters untouched" 0
        (Obs.counter "oracle_hits");
      Alcotest.(check (list string)) "global spans untouched" []
        (List.map (fun s -> s.Obs.span_path) (Obs.spans ())))

let scope_cap_bounds_events_not_aggregates () =
  with_clean_obs (fun () ->
      let sc = Trace.create ~cap:2 ~req:"capped" () in
      Obs.with_request sc (fun () ->
          for i = 1 to 5 do
            Obs.record ~oracle:"mc" ~n:i ~seconds:0.1 ()
          done);
      Alcotest.(check int) "stored at cap" 2 (List.length (Trace.events sc));
      Alcotest.(check int) "overflow counted" 3 (Trace.dropped sc);
      Alcotest.(check int) "emitted = stored + dropped" 5 (Trace.emitted sc);
      Alcotest.(check int) "aggregates exact past the cap" 5
        (Trace.oracle_calls sc);
      Alcotest.(check (float 1e-9)) "seconds exact past the cap" 0.5
        (Trace.oracle_seconds sc);
      (* cap 0: pure aggregation *)
      let sc0 = Trace.create ~cap:0 ~req:"agg-only" () in
      Obs.with_request sc0 (fun () ->
          Obs.record ~oracle:"mc" ~n:1 ~seconds:0.125 ());
      Alcotest.(check int) "cap 0 stores nothing" 0
        (List.length (Trace.events sc0));
      Alcotest.(check int) "cap 0 still aggregates" 1 (Trace.oracle_calls sc0))

let scope_nesting_restores () =
  with_clean_obs (fun () ->
      let outer = Trace.create ~req:"outer" () in
      let inner = Trace.create ~req:"inner" () in
      let installed b =
        match Obs.request () with Some c -> c == b | None -> false
      in
      Obs.with_request outer (fun () ->
          Obs.phase "before";
          Obs.with_request inner (fun () ->
              Obs.phase "nested";
              Alcotest.(check bool) "inner installed" true (installed inner));
          Alcotest.(check bool) "outer restored" true (installed outer);
          Obs.phase "after");
      Alcotest.(check bool) "uninstalled at the end" true
        (Obs.request () = None);
      Alcotest.(check (list string)) "outer saw only its own phases"
        [ "before"; "after" ]
        (List.map (fun e -> e.Trace.name) (Trace.events outer));
      Alcotest.(check (list string)) "inner saw only the nested phase"
        [ "nested" ]
        (List.map (fun e -> e.Trace.name) (Trace.events inner));
      (* a raising body still restores *)
      (try
         Obs.with_request outer (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "restored after raise" false (Obs.observing ()))

let scope_span_depths () =
  with_clean_obs (fun () ->
      let sc = Trace.create ~req:"depths" () in
      Obs.with_request sc (fun () ->
          Obs.with_span "a" (fun () -> Obs.with_span "b" (fun () -> ())));
      let depth_of name kind =
        match
          List.find_opt
            (fun e -> e.Trace.name = name && e.Trace.kind = kind)
            (Trace.events sc)
        with
        | Some e -> e.Trace.depth
        | None -> Alcotest.failf "no %s event for span %s"
                    (Trace.kind_name kind) name
      in
      Alcotest.(check int) "outer begin at 0" 0 (depth_of "a" Trace.Span_begin);
      Alcotest.(check int) "inner begin at 1" 1 (depth_of "b" Trace.Span_begin);
      Alcotest.(check int) "inner end at its begin depth" 1
        (depth_of "b" Trace.Span_end);
      Alcotest.(check int) "outer end at its begin depth" 0
        (depth_of "a" Trace.Span_end))

let scope_and_enabled_coexist () =
  with_clean_obs (fun () ->
      Obs.enable ();
      let sc = Trace.create ~req:"both" () in
      Obs.with_request sc (fun () ->
          Obs.with_span "stage" (fun () ->
              Obs.record ~oracle:"dpll" ~n:4 ~seconds:0.5 ()));
      (* both sides observed the same work *)
      Alcotest.(check int) "global ledger got the call" 1 (Obs.call_count ());
      Alcotest.(check int) "scope got the call" 1 (Trace.oracle_calls sc);
      Alcotest.(check (list string)) "global span aggregated" [ "stage" ]
        (List.map (fun s -> s.Obs.span_path) (Obs.spans ()));
      (* work done outside the scope stays out of it *)
      Obs.record ~oracle:"dpll" ~n:4 ~seconds:0.5 ();
      Alcotest.(check int) "global sees both calls" 2 (Obs.call_count ());
      Alcotest.(check int) "scope still sees one" 1 (Trace.oracle_calls sc))

let par_map_propagates_scope () =
  with_clean_obs (fun () ->
      let saved = Par.jobs () in
      Fun.protect
        ~finally:(fun () -> Par.set_jobs saved)
        (fun () ->
          Par.set_jobs 4;
          let sc = Trace.create ~req:"fanout" () in
          let out =
            Obs.with_request sc (fun () ->
                Par.map
                  (fun i ->
                    Obs.record ~oracle:"worker" ~n:i ~seconds:0.01 ();
                    i * i)
                  (Array.init 16 (fun i -> i)))
          in
          Alcotest.(check (array int)) "map result"
            (Array.init 16 (fun i -> i * i))
            out;
          Alcotest.(check int) "every worker call landed in the scope" 16
            (Trace.oracle_calls sc);
          let oracle_events =
            List.filter
              (fun e -> e.Trace.kind = Trace.Oracle)
              (Trace.events sc)
          in
          Alcotest.(check int) "all oracle events stored" 16
            (List.length oracle_events);
          List.iter
            (fun e ->
              Alcotest.(check (option string)) "req attr across domains"
                (Some "fanout") (req_attr e))
            oracle_events))

(* Regression: Pool.Exec workers used to run tasks with an empty span
   stack and no request buffer, so server-side oracle work neither
   nested under the submitting request's span path nor reached its
   per-request buffer. *)
let exec_submit_propagates_context_and_scope () =
  with_clean_obs (fun () ->
      Obs.enable ();
      let sc = Trace.create ~req:"submitter" () in
      let ex = Pool.Exec.create ~jobs:2 in
      Obs.with_request sc (fun () ->
          Obs.with_span "caller" (fun () ->
              Alcotest.(check bool) "submit accepted" true
                (Pool.Exec.submit ex (fun () ->
                     Obs.with_span "worker" (fun () ->
                         Obs.record ~oracle:"dpll" ~n:2 ~seconds:0.125 ())))));
      Alcotest.(check bool) "drained" true (Pool.Exec.shutdown ex);
      let paths = List.map (fun s -> s.Obs.span_path) (Obs.spans ()) in
      Alcotest.(check bool) "worker span nests under the caller's path" true
        (List.mem "caller/worker" paths);
      Alcotest.(check int) "oracle call reached the submitter's scope" 1
        (Trace.oracle_calls sc);
      let names = List.map (fun e -> e.Trace.name) (Trace.events sc) in
      Alcotest.(check bool) "worker span captured by the scope" true
        (List.mem "worker" names);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "req attr from the worker domain"
            (Some "submitter") (req_attr e))
        (Trace.events sc))

let exec_submit_without_context_is_bare () =
  with_clean_obs (fun () ->
      let ex = Pool.Exec.create ~jobs:2 in
      let saw_scope = Atomic.make true in
      ignore
        (Pool.Exec.submit ex (fun () ->
             Atomic.set saw_scope (Obs.request () <> None)));
      Alcotest.(check bool) "drained" true (Pool.Exec.shutdown ex);
      Alcotest.(check bool) "no phantom scope in workers" false
        (Atomic.get saw_scope))

let concurrent_emission_into_one_scope () =
  with_clean_obs (fun () ->
      let sc = Trace.create ~req:"shared" () in
      let domains = 4 and per_domain = 200 in
      let workers =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                Obs.with_request sc (fun () ->
                    for i = 1 to per_domain do
                      Obs.record ~oracle:"mc" ~n:((d * per_domain) + i)
                        ~seconds:0.001 ()
                    done)))
      in
      Array.iter Domain.join workers;
      Alcotest.(check int) "no emission lost under contention"
        (domains * per_domain)
        (Trace.oracle_calls sc);
      Alcotest.(check int) "stored + dropped accounts for everything"
        (domains * per_domain)
        (List.length (Trace.events sc) + Trace.dropped sc);
      (* sequence numbers are unique and dense over stored events *)
      let seqs =
        List.sort compare
          (List.map (fun e -> e.Trace.seq) (Trace.events sc))
      in
      let distinct = List.sort_uniq compare seqs in
      Alcotest.(check int) "seq numbers distinct" (List.length seqs)
        (List.length distinct))

(* A request buffer sees the reductions' oracle calls with the ledger
   off: the call sites gate on [Obs.observing], not on the ledger. *)
let request_buffer_sees_lemma33_calls () =
  with_clean_obs (fun () ->
      let sc = Trace.create ~req:"kcounts" () in
      let _ =
        Obs.with_request sc (fun () ->
            Pipeline.kcounts_via_count_oracle
              ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2; 3 ]
              Helpers.example2_formula)
      in
      let int_attr k e =
        match List.assoc_opt k e.Trace.attrs with
        | Some (Trace.Int v) -> v
        | _ -> Alcotest.failf "oracle event lacks %s" k
      in
      let oracles =
        List.filter (fun e -> e.Trace.kind = Trace.Oracle) (Trace.events sc)
      in
      Alcotest.(check (list (pair int int))) "l = 1..4, each over n = 3·l"
        [ (1, 3); (2, 6); (3, 9); (4, 12) ]
        (List.sort compare
           (List.map (fun e -> (int_attr "l" e, int_attr "n" e)) oracles));
      Alcotest.(check int) "ledger untouched" 0 (Obs.call_count ()))

(* One event, two buffers: with the ledger on, the [--trace] stream and
   an installed request buffer record the same sequence, counters
   included (both carry the increment). *)
let one_event_two_buffers () =
  with_clean_obs (fun () ->
      Obs.enable ();
      let stream = Trace.create () and sc = Trace.create ~req:"both" () in
      Obs.set_trace (Some stream);
      Fun.protect
        ~finally:(fun () -> Obs.set_trace None)
        (fun () ->
          Obs.with_request sc (fun () ->
              ignore
                (Pipeline.shap_via_count_oracle
                   ~oracle:Pipeline.dpll_count_oracle ~vars:[ 1; 2; 3 ]
                   Helpers.example2_formula);
              Obs.add "bumps" 2;
              Obs.add "bumps" 3));
      let skeleton b =
        List.map
          (fun e ->
            ( Trace.kind_name e.Trace.kind,
              e.Trace.name,
              e.Trace.depth,
              List.filter (fun (k, _) -> k <> "req") e.Trace.attrs ))
          (Trace.events b)
      in
      let global = skeleton stream in
      Alcotest.(check int) "13 oracle events" 13 (Trace.oracle_calls stream);
      Alcotest.(check bool) "same sequence in both buffers" true
        (global = skeleton sc);
      Alcotest.(check (list int)) "counter events carry the increment" [ 2; 3 ]
        (List.filter_map
           (fun (_, name, _, attrs) ->
             match (name, List.assoc_opt "value" attrs) with
             | "bumps", Some (Trace.Int v) -> Some v
             | _ -> None)
           global))

let suite =
  [ t "scope: captures with global obs disabled"
      scope_captures_while_obs_disabled;
    t "scope: cap bounds events, not aggregates"
      scope_cap_bounds_events_not_aggregates;
    t "scope: nesting installs and restores" scope_nesting_restores;
    t "scope: span depths match begin/end pairs" scope_span_depths;
    t "scope: coexists with the global switch" scope_and_enabled_coexist;
    t "scope: Par.map propagates into worker domains"
      par_map_propagates_scope;
    t "scope: Pool.Exec.submit re-installs context and scope (regression)"
      exec_submit_propagates_context_and_scope;
    t "scope: bare submits see no phantom scope"
      exec_submit_without_context_is_bare;
    t "scope: concurrent emission into one scope is lossless"
      concurrent_emission_into_one_scope;
    t "scope: Lemma 3.3 oracle calls reach a request buffer with the ledger off"
      request_buffer_sees_lemma33_calls;
    t "scope: one event, two buffers" one_event_two_buffers ]

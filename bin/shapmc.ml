(* shapmc — command-line front end.

   Subcommands mirror the three problems of Section 3 plus the database
   application of Section 5:

     shapmc count    "x1 & (x2 | !x3)"          model count
     shapmc kcount   "x1 & (x2 | !x3)"          fixed-size model counts
     shapmc shap     "x1 & (x2 | !x3)"          Shapley value of every variable
     shapmc compile  "x1 & (x2 | !x3)"          compile to a d-D circuit / OBDD
     shapmc classify "R(x), S(x,y), T(y)"       dichotomy classification
     shapmc lineage  db.txt                     lineage + Shapley values of tuples
     shapmc stretch  db.txt                     stretched query + diagram check *)

open Cmdliner

let formula_arg =
  let doc = "Boolean formula, e.g. 'x1 & (x2 | !x3)'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let file_arg =
  let doc = "Database+query file (see docs for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let method_arg ~choices ~default =
  let doc =
    Printf.sprintf "Algorithm to use: %s." (String.concat ", " choices)
  in
  Arg.(value & opt string default & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let stats_arg =
  let doc =
    "Collect and print instrumentation after the result: an oracle-call \
     table (how many times each oracle was consulted, at which universe \
     sizes n and substitution arities l — the cost measure of Theorem \
     3.1), substitution sizes, counters and timing spans.  Also enabled \
     by setting $(env)."
  in
  Arg.(value & flag
       & info [ "stats" ] ~env:(Cmd.Env.info "SHAPMC_STATS") ~doc)

let universe_arg =
  let doc =
    "Extra universe size: treat the function as being over the first N \
     variables even if some do not occur (default: the variables occurring \
     in the formula)."
  in
  Arg.(value & opt (some int) None & info [ "n"; "universe" ] ~docv:"N" ~doc)

let universe_of ?n f =
  let vars = Formula.vars f in
  match n with
  | None -> Vset.elements vars
  | Some n ->
    let top = match Vset.max_elt_opt vars with None -> 0 | Some m -> m in
    if Vset.mem 0 vars then
      failwith
        (Printf.sprintf "universe %d is x1..x%d, which misses the variable x0" n n)
    else if n < top then
      failwith
        (Printf.sprintf "universe %d is smaller than the largest variable x%d"
           n top)
    else List.init n succ

let trace_arg =
  let doc =
    "Record a structured event trace of the run and write it to $(docv).  \
     A $(b,.jsonl) suffix selects the compact JSONL stream that $(b,shapmc \
     trace-report) replays; any other suffix selects Chrome trace_event \
     JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.  \
     Implies the instrumentation that $(b,--stats) reads; giving both \
     flags reports each exactly once."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Evaluate independent oracle consultations (the n+1 arities of Lemma \
     3.3, the n drop-vectors of Lemma 3.2, the n positions of Lemma 3.4, \
     the PQE route's n+1 probability evaluations) on up to $(docv) \
     domains.  The default 1 runs everything sequentially, bit-identical \
     to previous releases; results are independent of $(docv).  Also \
     settable via $(env)."
  in
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "SHAPMC_JOBS") ~doc)

let profile_arg =
  let doc =
    "Profile the run and print a report after the result: per-phase self \
     time, oracle-latency percentiles (p50/p90/p99/max by lemma and \
     substitution arity), allocation per phase, Gc totals and — with \
     $(b,--jobs) > 1 — pool utilization.  With no $(docv) (or $(docv) = \
     $(b,-)) the report goes to stdout; otherwise it is written to \
     $(docv).  Profiling never changes results or oracle-call counts."
  in
  Arg.(value
       & opt ~vopt:(Some "-") (some string) None
       & info [ "profile" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the metrics registry in OpenMetrics/Prometheus text exposition \
     format to $(docv) after the run ($(b,-) for stdout): counters, \
     gauges and latency/size histograms with cumulative buckets."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* The observation flags every subcommand shares, bundled into one term
   so adding a flag touches one place instead of fifteen. *)
type obs_opts = {
  stats : bool;
  trace : string option;
  profile : string option;
  metrics : string option;
  jobs : int;
}

let obs_args =
  let mk stats trace profile metrics jobs =
    { stats; trace; profile; metrics; jobs }
  in
  Term.(const mk
        $ stats_arg $ trace_arg $ profile_arg $ metrics_arg $ jobs_arg)

let wrap f =
  try f () with
  | Invalid_argument m | Failure m ->
    Printf.eprintf "error: %s\n" m;
    exit 1

let write_text_to ~what path text =
  if path = "-" then print_string text
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text);
    Printf.eprintf "%s: written to %s\n" what path
  end

(* Bracket a subcommand body with the parallelism knob (--jobs), the Obs
   ledger (--stats), the trace recorder (--trace FILE), the profiler
   (--profile [FILE]) and the OpenMetrics dump (--metrics FILE).  All
   compose: a single reset up front, the trace file written first (a
   note on stderr keeps stdout clean), then stats, profile and metrics —
   none clears another's data. *)
let with_obs opts f =
  Par.set_jobs opts.jobs;
  let live =
    opts.stats || opts.trace <> None || opts.profile <> None
    || opts.metrics <> None
  in
  if live then begin
    Obs.reset ();
    Obs.enable ();
    Obs.set_profiling (opts.profile <> None)
  end;
  let stream = Option.map (fun path -> (path, Trace.create ())) opts.trace in
  Obs.set_trace (Option.map snd stream);
  (* Gc bracket for the whole command body: allocation and collection
     deltas plus the peak heap, reported as gauges. *)
  let gc0 = Gc.quick_stat () in
  let alloc0 = Obs.allocated_bytes_now () in
  let r = f () in
  if live then begin
    let gc1 = Gc.quick_stat () in
    let word = float_of_int (Sys.word_size / 8) in
    Metrics.set "gc_allocated_bytes" (Obs.allocated_bytes_now () -. alloc0);
    Metrics.set "gc_minor_collections"
      (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    Metrics.set "gc_major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    Metrics.set "gc_top_heap_bytes" (float_of_int gc1.Gc.top_heap_words *. word)
  end;
  (match stream with
   | None -> ()
   | Some (path, b) ->
     Obs.set_trace None;
     Trace_export.write_file ~path b;
     let dropped = Trace.dropped b in
     let stored = Trace.emitted b - dropped in
     Printf.eprintf "trace: %d event%s written to %s%s\n" stored
       (if stored = 1 then "" else "s")
       path
       (if dropped > 0 then
          Printf.sprintf " (%d dropped at the %d-event cap)" dropped
            Trace.default_cap
        else ""));
  if opts.stats then Format.printf "@\n%a@?" Obs.pp_report ();
  (match opts.profile with
   | None -> ()
   | Some path ->
     let text = Metrics.profile_report () in
     if path = "-" then print_string ("\n" ^ text)
     else write_text_to ~what:"profile" path text);
  (match opts.metrics with
   | None -> ()
   | Some path ->
     write_text_to ~what:"metrics" path (Metrics.to_openmetrics ()));
  if live then begin
    Obs.set_profiling false;
    Obs.disable ();
    Obs.reset ()
  end;
  r

(* ------------------------------------------------------------------ *)

let count_cmd =
  let run opts method_ n s =
    wrap (fun () ->
        let f = Parser.formula_of_string_exn s in
        let vars = universe_of ?n f in
        with_obs opts (fun () ->
            let result =
              match method_ with
              | "dpll" -> Dpll.count_universe ~vars f
              | "brute" -> Brute.count ~vars f
              | "circuit" -> Count.count ~vars (Compile.compile f)
              | "obdd" ->
                let m = Obdd.create_manager ~order:vars in
                Obdd.count m ~vars (Obdd.of_formula m f)
              | m -> failwith ("unknown method " ^ m)
            in
            Printf.printf "%s\n" (Bigint.to_string result)))
  in
  let info = Cmd.info "count" ~doc:"Model count #F of a Boolean formula." in
  Cmd.v info
    Term.(const run $ obs_args
          $ method_arg ~choices:[ "dpll"; "brute"; "circuit"; "obdd" ]
              ~default:"dpll"
          $ universe_arg $ formula_arg)

let kcount_cmd =
  let run opts method_ n s =
    wrap (fun () ->
        let f = Parser.formula_of_string_exn s in
        let vars = universe_of ?n f in
        with_obs opts (fun () ->
            let kv =
              match method_ with
              | "dpll" -> Dpll.count_by_size_universe ~vars f
              | "brute" -> Brute.count_by_size ~vars f
              | "circuit" -> Count.count_by_size ~vars (Compile.compile f)
              | "reduction" ->
                (* Lemma 3.3 through a DPLL counting oracle *)
                Pipeline.kcounts_via_count_oracle
                  ~oracle:Pipeline.dpll_count_oracle ~vars f
              | m -> failwith ("unknown method " ^ m)
            in
            Array.iteri
              (fun k c -> Printf.printf "#_%d = %s\n" k (Bigint.to_string c))
              (Kvec.to_array kv);
            Printf.printf "#F  = %s\n" (Bigint.to_string (Kvec.total kv))))
  in
  let info =
    Cmd.info "kcount"
      ~doc:"Fixed-size model counts #_k F (problem #_*C of Section 3)."
  in
  Cmd.v info
    Term.(const run $ obs_args
          $ method_arg
              ~choices:[ "dpll"; "brute"; "circuit"; "reduction" ]
              ~default:"dpll"
          $ universe_arg $ formula_arg)

(* How a formula's variable prints: its source name from the parser's
   table, [x<id>] for an id without one. *)
let name_of names i =
  match List.assoc_opt i names with
  | Some n -> n
  | None -> Printf.sprintf "x%d" i

let print_shap names shap =
  List.iter
    (fun (i, v) ->
       Printf.printf "%-12s %-14s (~ %.6f)\n" (name_of names i) (Rat.to_string v)
         (Rat.to_float v))
    shap;
  Printf.printf "%-12s %s\n" "sum"
    (Rat.to_string (Naive.shap_sum shap))

let shap_cmd =
  let run opts method_ n s =
    wrap (fun () ->
        let f, names = Parser.formula_of_string s in
        let vars = universe_of ?n f in
        with_obs opts (fun () ->
            let shap =
              match method_ with
              | "circuit" ->
                Circuit_shapley.shap_direct ~vars (Compile.compile f)
              | "reduction" ->
                Pipeline.shap_via_count_oracle
                  ~oracle:Pipeline.dpll_count_oracle ~vars f
              | "pqe" ->
                Pipeline.shap_via_pqe_oracle
                  ~oracle:Pipeline.pqe_circuit_oracle ~vars f
              | "subsets" -> Naive.shap_subsets ~vars f
              | "permutations" -> Naive.shap_permutations ~vars f
              | m -> failwith ("unknown method " ^ m)
            in
            print_shap names shap))
  in
  let info =
    Cmd.info "shap"
      ~doc:"Shapley value of every variable (problem Shap(C) of Section 3)."
  in
  Cmd.v info
    Term.(const run $ obs_args
          $ method_arg
              ~choices:[ "circuit"; "reduction"; "pqe"; "subsets"; "permutations" ]
              ~default:"circuit"
          $ universe_arg $ formula_arg)

let banzhaf_cmd =
  let run opts method_ n s =
    wrap (fun () ->
        let f, names = Parser.formula_of_string s in
        let vars = universe_of ?n f in
        with_obs opts (fun () ->
            let scores =
              match method_ with
              | "circuit" ->
                Power_indices.banzhaf_circuit ~vars (Compile.compile f)
              | "brute" -> Power_indices.banzhaf ~vars f
              | "dpll" ->
                Power_indices.banzhaf_via_count_oracle
                  ~count:(fun ~vars f -> Dpll.count_universe ~vars f)
                  ~vars f
              | m -> failwith ("unknown method " ^ m)
            in
            print_shap names scores))
  in
  let info =
    Cmd.info "banzhaf" ~doc:"Banzhaf value of every variable (comparison index)."
  in
  Cmd.v info
    Term.(const run $ obs_args
          $ method_arg ~choices:[ "circuit"; "brute"; "dpll" ] ~default:"circuit"
          $ universe_arg $ formula_arg)

let approx_cmd =
  let samples_arg =
    Arg.(value & opt (some int) None
         & info [ "s"; "samples" ] ~docv:"N"
             ~doc:"Cap on the sampled permutations (default: the Hoeffding \
                   bound for $(b,--eps)/$(b,--delta) when $(b,--eps) is \
                   given, else 10000).")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let eps_arg =
    Arg.(value & opt (some float) None
         & info [ "eps" ] ~docv:"EPS" ~env:(Cmd.Env.info "SHAPMC_EPS")
             ~doc:"Target additive error: stop as soon as the certified max \
                   CI half-width is at most $(docv).")
  in
  let delta_arg =
    Arg.(value & opt float 0.05
         & info [ "delta" ] ~docv:"DELTA" ~env:(Cmd.Env.info "SHAPMC_DELTA")
             ~doc:"Per-variable CI failure probability (default 0.05).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~env:(Cmd.Env.info "SHAPMC_DEADLINE")
             ~doc:"Wall-clock budget: stop at the first round boundary past \
                   $(docv) seconds (a clock is not replayable, so \
                   deadline-stopped runs are not bit-identical across \
                   $(b,--jobs)).")
  in
  let estimator_arg =
    Arg.(value & opt string "truncated"
         & info [ "estimator" ] ~docv:"NAME"
             ~env:(Cmd.Env.info "SHAPMC_ESTIMATOR")
             ~doc:"Estimator: $(b,truncated) (permutation sampling with a \
                   monotone prefix cutoff, default) or $(b,antithetic) \
                   (reversed-pair means).")
  in
  let ci_arg =
    Arg.(value & opt string "bernstein"
         & info [ "ci" ] ~docv:"CI"
             ~doc:"Confidence interval: $(b,hoeffding), $(b,clt) or \
                   $(b,bernstein) (variance-adaptive, default).")
  in
  let interval_arg =
    Arg.(value & opt int Convergence.default_interval
         & info [ "interval" ] ~docv:"N"
             ~doc:"Convergence checkpoint period in samples.")
  in
  let convergence_arg =
    Arg.(value & opt (some string) None
         & info [ "convergence" ] ~docv:"FILE"
             ~env:(Cmd.Env.info "SHAPMC_CONVERGENCE")
             ~doc:"Write one JSONL convergence checkpoint per $(b,--interval) \
                   samples to $(docv) ($(b,-) for stderr).  Lines carry no \
                   wall-clock stamps, so equal-seed runs produce identical \
                   files at any $(b,--jobs).")
  in
  let progress_arg =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Print a progress line to stderr at every estimator round \
                   (samples so far, certified half-width, elapsed time).")
  in
  let run opts samples seed eps delta deadline estimator ci interval
      convergence progress n s =
    wrap (fun () ->
        let f, names = Parser.formula_of_string s in
        let vars = universe_of ?n f in
        let name = name_of names in
        let estimator =
          match Sampling.estimator_of_string estimator with
          | Some e -> e
          | None -> failwith ("unknown estimator " ^ estimator)
        in
        let ci =
          match Convergence.ci_of_string ci with
          | Some c -> c
          | None -> failwith ("unknown ci " ^ ci)
        in
        let progress_fn =
          if progress then
            Some
              (fun (p : Sampling.progress) ->
                Printf.eprintf
                  "progress: samples=%d half-width=%s elapsed=%.2fs\n%!"
                  p.Sampling.pr_samples
                  (if p.Sampling.pr_half_width = infinity then "inf"
                   else Printf.sprintf "%.6f" p.Sampling.pr_half_width)
                  p.Sampling.pr_elapsed)
          else None
        in
        let with_jsonl k =
          match convergence with
          | None -> k None
          | Some "-" -> k (Some stderr)
          | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> k (Some oc))
        in
        with_obs opts (fun () ->
            with_jsonl @@ fun jsonl ->
            let report =
              Sampling.shap_estimate ~estimator ~seed ~delta ?eps
                ?max_samples:samples ?deadline ~ci ~interval ?jsonl
                ?progress:progress_fn ~vars f
            in
            List.iter
              (fun e ->
                 Printf.printf "%-12s %10.6f  (± %s at %g%%)\n"
                   (name e.Sampling.variable) e.Sampling.value
                   (if e.Sampling.half_width = infinity then "inf"
                    else Printf.sprintf "%.6f" e.Sampling.half_width)
                   (100.0 *. (1.0 -. delta)))
              report.Sampling.estimates;
            Printf.printf "samples: %d\n" report.Sampling.samples_used;
            Printf.printf "evals: %d\n" report.Sampling.evals;
            Printf.printf "converged: %b\n" report.Sampling.converged))
  in
  let info =
    Cmd.info "approx"
      ~doc:"Approximate Shapley values by observable Monte-Carlo estimation."
      ~man:
        [ `S Manpage.s_description;
          `P "Runs one of two permutation-sampling estimators with \
              streaming per-variable confidence intervals, stopping early \
              when the certified max half-width reaches $(b,--eps), a \
              $(b,--deadline) passes, or the $(b,--samples) budget is \
              spent.  Batches fan out over $(b,--jobs) domains with \
              per-batch seed substreams; equal seeds give bit-identical \
              results at any job count (deadline stops excepted).  \
              Checkpoint telemetry flows to $(b,--convergence) JSONL, \
              $(b,--trace), $(b,--metrics) (estimator_* series) and \
              $(b,--progress)." ]
  in
  Cmd.v info
    Term.(const run $ obs_args $ samples_arg $ seed_arg $ eps_arg $ delta_arg
          $ deadline_arg $ estimator_arg $ ci_arg $ interval_arg
          $ convergence_arg $ progress_arg $ universe_arg $ formula_arg)

let prob_cmd =
  let theta_arg =
    Arg.(value & opt string "1/2"
         & info [ "t"; "theta" ] ~docv:"THETA"
             ~doc:"Probability of each variable (a rational, e.g. 1/3).")
  in
  let run opts theta s =
    wrap (fun () ->
        let f = Parser.formula_of_string_exn s in
        let theta = Rat.of_string theta in
        with_obs opts (fun () ->
            let p =
              Prob.probability ~weights:(fun _ -> theta) (Compile.compile f)
            in
            Printf.printf "%s (~ %.6f)\n" (Rat.to_string p) (Rat.to_float p)))
  in
  let info =
    Cmd.info "prob"
      ~doc:"Probability of the function under a uniform product distribution."
  in
  Cmd.v info Term.(const run $ obs_args $ theta_arg $ formula_arg)

let factor_cmd =
  let run opts s =
    wrap (fun () ->
        let f, names = Parser.formula_of_string s in
        if not (Nf.is_positive f) then
          failwith "read-once factoring requires a positive formula";
        with_obs opts (fun () ->
            match Read_once.factor (Nf.formula_to_pdnf f) with
            | Some tree ->
              Format.printf "read-once: %a@."
                (Formula.pp_with ~var:(name_of names))
                (Read_once.tree_to_formula tree)
            | None -> Printf.printf "not read-once\n"))
  in
  let info =
    Cmd.info "factor" ~doc:"Read-once factoring of a positive formula."
  in
  Cmd.v info Term.(const run $ obs_args $ formula_arg)

let compile_cmd =
  let run opts target s =
    wrap (fun () ->
        let f, names = Parser.formula_of_string s in
        with_obs opts (fun () ->
            match target with
         | "circuit" ->
           let c, stats = Compile.compile_with_stats f in
           Printf.printf "gates: %d  edges: %d  expansions: %d  cache hits: %d\n"
             (Circuit.size c) (Circuit.edge_count c)
             stats.Dpll.branches stats.Dpll.cache_hits;
           Format.printf "%a@." (Circuit.pp_with ~var:(name_of names)) c
         | "obdd" ->
           let vars = Vset.elements (Formula.vars f) in
           let m = Obdd.create_manager ~order:vars in
           let o = Obdd.of_formula m f in
           Printf.printf "nodes: %d\n" (Obdd.size o);
           Printf.printf "count over its variables: %s\n"
             (Bigint.to_string (Obdd.count m ~vars o))
         | t -> failwith ("unknown target " ^ t)))
  in
  let info =
    Cmd.info "compile"
      ~doc:"Compile a formula to a d-D circuit or OBDD (Section 4)."
  in
  Cmd.v info
    Term.(const run $ obs_args
          $ method_arg ~choices:[ "circuit"; "obdd" ] ~default:"circuit"
          $ formula_arg)

let classify_cmd =
  let run opts s =
    wrap (fun () ->
        let q = Db_parser.parse_query s in
        Printf.printf "query: %s\n" (Cq.to_string q);
        with_obs opts (fun () ->
            match Dichotomy.classify q with
        | Dichotomy.Hierarchical ->
          Printf.printf
            "hierarchical, self-join-free: Shap(C_Q) is in FP (Theorem 5.1)\n"
        | Dichotomy.Non_hierarchical (x, y) ->
          Printf.printf
            "non-hierarchical (witness: %s, %s): Shap(C_Q) is FP^#P-hard \
             (Theorem 5.1)\n"
            x y
        | Dichotomy.Has_self_joins ->
          Printf.printf "has self-joins: outside the Theorem 5.1 dichotomy\n"
        | Dichotomy.Has_negation ->
          Printf.printf
            "has negated atoms: outside the Theorem 5.1 dichotomy (cf. \
             Reshef et al.); solved by lineage compilation\n"))
  in
  let query_arg =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"Conjunctive query, e.g. 'R(x), S(x,y)'.")
  in
  let info =
    Cmd.info "classify" ~doc:"Classify a CQ per the Theorem 5.1 dichotomy."
  in
  Cmd.v info Term.(const run $ obs_args $ query_arg)

let lineage_cmd =
  let run opts file =
    wrap (fun () ->
        let db, q = Db_parser.parse_file file in
        with_obs opts (fun () ->
            let f = Lineage.lineage_formula db q in
            let report = Explain.explain db q in
            Format.printf "lineage: %s@\n%a@?" (Formula.to_string f) Explain.pp
              report))
  in
  let info =
    Cmd.info "lineage"
      ~doc:"Lineage and per-tuple Shapley values for a query over a database."
  in
  Cmd.v info Term.(const run $ obs_args $ file_arg)

let stretch_cmd =
  let run opts file =
    wrap (fun () ->
        let db, q = Db_parser.parse_file file in
        with_obs opts @@ fun () ->
        let is_endo r = Database.kind_of db r = Database.Endogenous in
        let qt, zs = Stretch.stretch_query ~is_endogenous:is_endo q in
        Printf.printf "query:     %s\n" (Cq.to_string q);
        Printf.printf "stretched: %s  (fresh: %s)\n" (Cq.to_string qt)
          (String.concat ", " zs);
        Printf.printf "hierarchical: %b -> %b (Lemma 15: preserved)\n"
          (Cq.is_hierarchical q) (Cq.is_hierarchical qt);
        (* Verify the commutative diagram on this instance with widths 2. *)
        let widths _ = 2 in
        let dbt, blocks = Stretch.or_substituted_db ~widths db in
        let f_sub =
          Subst.apply
            (fun v ->
               match List.assoc_opt v blocks with
               | Some vs -> Formula.or_ (List.map Formula.var vs)
               | None -> Formula.var v)
            (Lineage.lineage_formula db q)
        in
        let f_str = Lineage.lineage_formula dbt qt in
        Printf.printf "diagram commutes on this database: %b\n"
          (Semantics.equivalent f_sub f_str))
  in
  let info =
    Cmd.info "stretch"
      ~doc:"Stretch a query (Def. 10) and verify the Section 5.2 diagram."
  in
  Cmd.v info Term.(const run $ obs_args $ file_arg)

let dimacs_cmd =
  let what_arg =
    Arg.(value & opt string "count"
         & info [ "w"; "what" ] ~docv:"WHAT"
             ~doc:"What to compute: count, kcount, shap, or wmc (uses the \
                   instance's weight lines, default 1/2).  All four run \
                   the one decomposition search, with unit propagation: \
                   count and kcount count with it, shap and wmc compile \
                   a d-D circuit with it.")
  in
  let run opts what file =
    wrap (fun () ->
        let inst = Dimacs.parse_file file in
        let f = Dimacs.to_formula inst in
        let vars = Dimacs.variables inst in
        with_obs opts @@ fun () ->
        match what with
        | "count" ->
          Printf.printf "%s\n" (Bigint.to_string (Dpll.count_universe ~vars f))
        | "kcount" ->
          Array.iteri
            (fun k c -> Printf.printf "#_%d = %s\n" k (Bigint.to_string c))
            (Kvec.to_array (Dpll.count_by_size_universe ~vars f))
        | "shap" ->
          print_shap [] (Circuit_shapley.shap_direct ~vars (Compile.compile f))
        | "wmc" ->
          let weights v =
            Option.value ~default:(Rat.of_ints 1 2)
              (List.assoc_opt v inst.Dimacs.weights)
          in
          let p = Prob.probability ~weights (Compile.compile f) in
          (* unmentioned declared variables have weight sums of 1 *)
          Printf.printf "%s (~ %.6f)\n" (Rat.to_string p) (Rat.to_float p)
        | w -> failwith ("unknown computation " ^ w))
  in
  let cnf_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.cnf" ~doc:"DIMACS CNF file.")
  in
  let info =
    Cmd.info "dimacs"
      ~doc:"Count models / Shapley values of a DIMACS CNF instance."
  in
  Cmd.v info Term.(const run $ obs_args $ what_arg $ cnf_arg)

let export_nnf_cmd =
  let run opts s =
    wrap (fun () ->
        let f = Parser.formula_of_string_exn s in
        with_obs opts (fun () ->
            let vars = Vset.elements (Formula.vars f) in
            let m = Obdd.create_manager ~order:vars in
            let c = Obdd.to_circuit m (Obdd.of_formula m f) in
            print_string
              (Nnf_io.export c
                 ~num_vars:
                   (Option.value ~default:0
                      (Vset.max_elt_opt (Formula.vars f))))))
  in
  let info =
    Cmd.info "export-nnf"
      ~doc:"Compile a formula (via OBDD) and print it in c2d NNF format."
  in
  Cmd.v info Term.(const run $ obs_args $ formula_arg)

let count_nnf_cmd =
  let run opts n file =
    wrap (fun () ->
        let c = Nnf_io.import_file file in
        let vars =
          match n with
          | Some n -> List.init n succ
          | None -> Vset.elements (Circuit.vars c)
        in
        with_obs opts (fun () ->
            Printf.printf "gates: %d\n" (Circuit.size c);
            Printf.printf "count: %s\n" (Bigint.to_string (Count.count ~vars c));
            print_shap [] (Circuit_shapley.shap_direct ~vars c)))
  in
  let nnf_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.nnf" ~doc:"c2d-style NNF file (d-DNNF).")
  in
  let info =
    Cmd.info "count-nnf"
      ~doc:"Model count and Shapley values of an externally compiled d-DNNF."
  in
  Cmd.v info Term.(const run $ obs_args $ universe_arg $ nnf_arg)

let serve_cmd =
  let open Shapmc_serve in
  let files_arg =
    let doc =
      "Database+query files to serve (same format as $(b,shapmc lineage)); \
       each becomes a named query, the name being the file's basename \
       without extension."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~env:(Cmd.Env.info "SHAPMC_HOST")
             ~doc:"Address to bind.  Also settable via $(env).")
  in
  let port_arg =
    Arg.(value & opt int 8080
         & info [ "p"; "port" ] ~docv:"PORT" ~env:(Cmd.Env.info "SHAPMC_PORT")
             ~doc:"Port to bind; $(b,0) picks an ephemeral port (the bound \
                   port is printed on startup).  Also settable via $(env).")
  in
  let max_header_arg =
    Arg.(value & opt int Limits.default.Limits.max_header_bytes
         & info [ "max-header-bytes" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_MAX_HEADER_BYTES")
             ~doc:"Reject requests whose header section exceeds $(docv) \
                   bytes (400).  Also settable via $(env).")
  in
  let max_body_arg =
    Arg.(value & opt int Limits.default.Limits.max_body_bytes
         & info [ "max-body-bytes" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_MAX_BODY_BYTES")
             ~doc:"Reject requests declaring a body over $(docv) bytes \
                   (413).  Also settable via $(env).")
  in
  let read_timeout_arg =
    Arg.(value & opt float Limits.default.Limits.read_timeout
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~env:(Cmd.Env.info "SHAPMC_READ_TIMEOUT")
             ~doc:"Close connections that stall mid-request for $(docv) \
                   seconds (408).  Also settable via $(env).")
  in
  let max_conn_requests_arg =
    Arg.(value & opt int Limits.default.Limits.max_conn_requests
         & info [ "max-conn-requests" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_MAX_CONN_REQUESTS")
             ~doc:"Answer at most $(docv) keep-alive requests per \
                   connection before closing it.  Also settable via $(env).")
  in
  let drain_arg =
    Arg.(value & opt float 5.0
         & info [ "drain-deadline" ] ~docv:"SECONDS"
             ~env:(Cmd.Env.info "SHAPMC_DRAIN_DEADLINE")
             ~doc:"On SIGINT/SIGTERM, wait up to $(docv) seconds for \
                   in-flight requests before force-closing their \
                   connections.  Also settable via $(env).")
  in
  let access_log_arg =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~env:(Cmd.Env.info "SHAPMC_ACCESS_LOG")
             ~doc:"Append one JSON object per answered request to $(docv) \
                   (id, route, code, bytes, wall/oracle/queue seconds, \
                   oracle-call count, jobs), rotating to $(docv).1 past \
                   $(b,--access-log-max-bytes).  Follow it live with \
                   $(b,shapmc tail).  Also settable via $(env).")
  in
  let access_log_max_arg =
    Arg.(value & opt int Access_log.default_max_bytes
         & info [ "access-log-max-bytes" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_ACCESS_LOG_MAX_BYTES")
             ~doc:"Rotate the access log when it would exceed $(docv) \
                   bytes; $(b,0) disables rotation.  Also settable via \
                   $(env).")
  in
  let debug_requests_arg =
    Arg.(value & opt int Telemetry.default_ring
         & info [ "debug-requests" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_DEBUG_REQUESTS")
             ~doc:"Keep the last $(docv) request profiles in memory for \
                   $(b,GET /v1/debug/requests); $(b,0) disables the ring. \
                   Also settable via $(env).")
  in
  let serve_cache_size_arg =
    Arg.(value & opt int Cache.default_results
         & info [ "cache-size" ] ~docv:"N"
             ~env:(Cmd.Env.info "SHAPMC_CACHE_SIZE")
             ~doc:"Capacity of the serving cache, in facts summed over \
                   the whole Shapley answers it holds.  Also settable via \
                   $(env).")
  in
  let run host port jobs max_header max_body read_timeout max_conn drain
      access_log access_log_max debug_requests cache_size files =
    wrap (fun () ->
        Par.set_jobs jobs;
        let name_of path = Filename.remove_extension (Filename.basename path) in
        let named = List.map (fun p -> (name_of p, p)) files in
        let api =
          try
            Api.load_files ~cache:(Cache.create ~results:cache_size ()) named
          with Invalid_argument m -> failwith m
        in
        let limits =
          { Limits.max_header_bytes = max_header;
            max_body_bytes = max_body;
            read_timeout;
            max_conn_requests = max_conn }
        in
        let access =
          Option.map
            (fun path -> Access_log.open_ ~max_bytes:access_log_max path)
            access_log
        in
        let config =
          { Server.host; port; jobs; limits; drain_deadline = drain;
            debug_requests; access_log = access }
        in
        let server = Server.create ~config (Api.routes api) in
        Server.start server;
        Printf.printf "shapmc serve: listening on http://%s:%d (%d quer%s, jobs=%d)\n%!"
          host (Server.port server)
          (List.length named)
          (if List.length named = 1 then "y" else "ies")
          jobs;
        let on_signal _ = Server.stop server in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        (* Dying clients must not kill the daemon mid-write. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Server.run server;
        Option.iter Access_log.close access;
        Printf.printf "shapmc serve: shut down cleanly (%d request%s served)\n%!"
          (Server.requests_served server)
          (if Server.requests_served server = 1 then "" else "s"))
  in
  let info =
    Cmd.info "serve"
      ~doc:"Long-running HTTP Shapley-attribution service: load databases \
            and queries once, answer $(b,POST /v1/shapley) requests \
            concurrently over the domain pool, serve OpenMetrics on \
            $(b,GET /metrics) and per-request trace profiles on \
            $(b,GET /v1/debug/requests)."
  in
  Cmd.v info
    Term.(const run $ host_arg $ port_arg $ jobs_arg $ max_header_arg
          $ max_body_arg $ read_timeout_arg $ max_conn_requests_arg
          $ drain_arg $ access_log_arg $ access_log_max_arg
          $ debug_requests_arg $ serve_cache_size_arg
          $ files_arg)

let tail_cmd =
  let open Shapmc_serve in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"JSONL access log written by $(b,shapmc serve \
                   --access-log).")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh the summary every $(docv) seconds.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Read the whole file, print one summary, exit (no \
                   following).")
  in
  let run interval once file =
    wrap (fun () ->
        if not (Sys.file_exists file) then
          failwith (Printf.sprintf "no such access log: %s" file);
        let t = Tail.create () in
        let ic = ref (open_in_bin file) in
        let buf = Bytes.create 65536 in
        let drain () =
          let rec go () =
            let k = input !ic buf 0 (Bytes.length buf) in
            if k > 0 then begin
              Tail.feed t (Bytes.sub_string buf 0 k);
              go ()
            end
          in
          go ()
        in
        let reopen_if_rotated () =
          (* The serve side renames the file away on rotation; follow
             the fresh file at the same path from its start. *)
          match (Unix.stat file).Unix.st_size < pos_in !ic with
          | true | (exception Unix.Unix_error _) -> (
              try
                let nic = open_in_bin file in
                close_in_noerr !ic;
                ic := nic
              with Sys_error _ -> ())
          | false -> ()
        in
        Fun.protect
          ~finally:(fun () -> close_in_noerr !ic)
          (fun () ->
            if once then begin
              drain ();
              Tail.finish t;
              print_string (Tail.render t)
            end
            else begin
              Printf.printf "shapmc tail: following %s (interval %gs, \
                             Ctrl-C to stop)\n%!" file interval;
              while true do
                drain ();
                let tm = Unix.localtime (Unix.gettimeofday ()) in
                Printf.printf "--- %02d:%02d:%02d  %d line%s ---\n%s%!"
                  tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
                  (Tail.lines t)
                  (if Tail.lines t = 1 then "" else "s")
                  (Tail.render t);
                Unix.sleepf (Float.max 0.05 interval);
                reopen_if_rotated ()
              done
            end))
  in
  let info =
    Cmd.info "tail"
      ~doc:"Follow a $(b,shapmc serve) access log and render a live \
            per-route summary: request and error counts, latency \
            percentiles, oracle work, bytes."
  in
  Cmd.v info Term.(const run $ interval_arg $ once_arg $ file_arg)

let trace_report_cmd =
  let run percentiles file =
    wrap (fun () ->
        let events, totals =
          try Trace_export.read_jsonl_file_full file
          with Failure m ->
            failwith
              (Printf.sprintf
                 "%s\n(trace-report replays the JSONL format; record one \
                  with --trace FILE.jsonl)"
                 m)
        in
        print_string (Trace_export.report ?totals ~percentiles events))
  in
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.jsonl"
             ~doc:"JSONL trace written by $(b,--trace FILE.jsonl).")
  in
  let percentiles_arg =
    let doc =
      "Append oracle-latency percentile rows (p50/p90/p99/max per oracle, \
       lemma and substitution arity) computed from the recorded events \
       through the same log-linear histograms as $(b,--profile); the \
       per-group call counts equal the oracle totals above."
    in
    Arg.(value & flag & info [ "percentiles" ] ~doc)
  in
  let info =
    Cmd.info "trace-report"
      ~doc:"Replay a recorded JSONL trace: indented timeline, per-phase \
            aggregates and per-oracle totals.  Warns when the recording \
            hit the event cap and events were dropped."
  in
  Cmd.v info Term.(const run $ percentiles_arg $ trace_file_arg)

let main =
  let doc =
    "Shapley values and model counting for Boolean functions, circuits and \
     query lineage (Kara, Olteanu, Suciu: From Shapley Value to Model \
     Counting and Back, PODS 2024)."
  in
  let info = Cmd.info "shapmc" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ count_cmd; kcount_cmd; shap_cmd; banzhaf_cmd; approx_cmd; prob_cmd;
      factor_cmd; compile_cmd; classify_cmd; lineage_cmd; stretch_cmd;
      dimacs_cmd; export_nnf_cmd; count_nnf_cmd; serve_cmd; tail_cmd;
      trace_report_cmd ]

let () = exit (Cmd.eval main)

(* End-to-end benchmark of shapmc: see README.md in this directory.

     e2e --shapmc PATH --workload NAME --seed N --seconds S --trace 0|1
         [--results-dir DIR]
     e2e --shapmc PATH --smoke
     e2e compare DIR_A DIR_B

   A run prints its metrics by name and unit, then, as its last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics untraced, the per-layer ones with --trace 1.  It
   also keeps that record, with its workload, seed and input digest, in
   the results directory for the comparison mode.  Everything it writes
   goes under _e2ebench/ in the working directory. *)

let usage =
  "usage: e2e --shapmc PATH --workload NAME --seed N --seconds S --trace 0|1\n\
  \           [--results-dir DIR]\n\
  \       e2e --shapmc PATH --smoke\n\
  \       e2e compare DIR_A DIR_B\n\
   workloads: "
  ^ String.concat ", " (List.map fst Inputs.workloads)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let root = "_e2ebench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let trace_path w seed =
  Filename.concat root (Printf.sprintf "trace-%s-seed%d.json" (Inputs.name w) seed)

let runs = ref 0

(* One run in a fresh work directory, removed afterwards. *)
let run_one ~shapmc ~w ~seed ~seconds ~traced ~setups ~corrupt =
  incr runs;
  let workdir =
    Filename.concat root (Printf.sprintf "work-%d-%d" (Unix.getpid ()) !runs)
  in
  mkdir_p workdir;
  let trace_path = trace_path w seed in
  Fun.protect
    ~finally:(fun () -> rm_rf workdir)
    (fun () ->
      match w with
      | Inputs.Batch_reduce ->
        Batch_run.run ~workdir ~seed ~seconds ~traced ~setups ~trace_path
      | _ ->
        Serve_run.run ~shapmc ~workdir ~w ~seed ~seconds ~traced ~setups
          ~corrupt ~trace_path)

(* ------------------------------------------------------------------ *)
(* --smoke: every workload for one second, traced (which also measures
   an untraced half), plus the self-checks of the benchmark itself. *)

let smoke ~shapmc =
  let spec = Outcome.load_spec "BENCHMARK.json" in
  let all_ok = ref true in
  let check label ok =
    Printf.printf "  [%s] %s\n%!" (if ok then "PASS" else "FAIL") label;
    if not ok then all_ok := false
  in
  let names_all (want : Outcome.spec_metric list) (got : Outcome.metric list) =
    List.for_all
      (fun (m : Outcome.spec_metric) ->
        List.exists
          (fun (x : Outcome.metric) ->
            x.Outcome.name = m.Outcome.s_name && x.Outcome.unit = m.Outcome.s_unit)
          got)
      want
  in
  List.iter
    (fun (name, w) ->
      let d = Inputs.digest w 1 in
      check (name ^ ": the same seed gives the same input digest") (d = Inputs.digest w 1);
      check (name ^ ": another seed gives another input digest") (d <> Inputs.digest w 2))
    Inputs.workloads;
  List.iter
    (fun (name, w) ->
      let o = run_one ~shapmc ~w ~seed:1 ~seconds:1. ~traced:true ~setups:2 ~corrupt:false in
      Outcome.print_human o ~traced:true;
      check (name ^ ": every answer is correct (error_ratio = 0)")
        (Outcome.correct o && o.Outcome.attempted > 0);
      check (name ^ ": reports every end-to-end metric of BENCHMARK.json")
        (names_all spec.Outcome.s_e2e o.Outcome.e2e);
      check (name ^ ": reports every per-layer metric of BENCHMARK.json")
        (names_all spec.Outcome.s_layers o.Outcome.layers);
      check (name ^ ": records the input digest") (o.Outcome.digest = Inputs.digest w 1);
      check (name ^ ": writes a Chrome trace that parses")
        (match Tiny_json.parse (Wire.read_file (trace_path w 1)) with
         | j -> (
             match Option.bind (Tiny_json.member "traceEvents" j) Tiny_json.to_list with
             | Some (_ :: _) -> true
             | _ -> false)
         | exception (Failure _ | Sys_error _) -> false))
    Inputs.workloads;
  let o =
    run_one ~shapmc ~w:Inputs.Serve_hot ~seed:1 ~seconds:0.5 ~traced:false ~setups:1
      ~corrupt:true
  in
  check "serve-hot against a corrupted reference: error_ratio > 0"
    (o.Outcome.failed > 0);
  if !all_ok then print_endline "smoke: ok"
  else begin
    print_endline "smoke: FAILED";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let parse_opts args =
  let rec go acc = function
    | (("--smoke" | "--setup-only" | "--traced") as f) :: rest -> go ((f, "") :: acc) rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f -> go ((f, v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %s" x
  in
  go [] args

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit runs at_exit, which stops the daemons and children *)
  let on_signal _ = exit 1 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let args = List.tl (Array.to_list Sys.argv) in
  let shapmc, args =
    match args with "--shapmc" :: p :: rest -> (Some p, rest) | _ -> (None, args)
  in
  match args with
  | [ "compare"; a; b ] ->
    if not (Verdict.run ~spec:(Outcome.load_spec "BENCHMARK.json") a b) then exit 1
  | _ -> (
      let opts = parse_opts args in
      let opt k = List.assoc_opt k opts in
      let num k conv =
        match opt k with
        | None -> die "missing %s" k
        | Some v -> (match conv v with Some x -> x | None -> die "bad %s %s" k v)
      in
      match opt "--child" with
      | Some "batch-reduce" ->
        Batch_run.child
          ~input:(Option.get (opt "--input"))
          ~setup_only:(opt "--setup-only" <> None)
          ~seconds:(Option.fold ~none:0. ~some:float_of_string (opt "--seconds"))
          ~traced:(opt "--traced" <> None)
          ~trace_out:(Option.value ~default:"" (opt "--trace-out"))
      | Some "calibrate" -> Calib.child ()
      | Some c -> die "unknown child %s" c
      | None -> (
          let shapmc = match shapmc with Some p -> p | None -> die "missing --shapmc" in
          if opt "--smoke" <> None then smoke ~shapmc
          else
            let w =
              match Option.bind (opt "--workload") Inputs.of_name with
              | Some w -> w
              | None -> die "missing or unknown --workload"
            in
            let seed = num "--seed" int_of_string_opt in
            let seconds = num "--seconds" float_of_string_opt in
            let traced =
              match num "--trace" int_of_string_opt with
              | 0 -> false
              | 1 -> true
              | _ -> die "--trace takes 0 or 1"
            in
            if not (seconds > 0.) then die "need --seconds > 0";
            let o =
              try run_one ~shapmc ~w ~seed ~seconds ~traced ~setups:11 ~corrupt:false
              with Failure m | Sys_error m ->
                prerr_endline ("e2e: run failed: " ^ m);
                exit 1
            in
            Outcome.print_human o ~traced;
            let dir =
              Option.value ~default:(Filename.concat root "results") (opt "--results-dir")
            in
            mkdir_p dir;
            Wire.write_file
              (Filename.concat dir
                 (Printf.sprintf "%s-seed%d-trace%d-%d-%d.json" o.Outcome.workload seed
                    (if traced then 1 else 0)
                    (int_of_float (Unix.time ()))
                    (Unix.getpid ())))
              (Tiny_json.to_string (Outcome.record_json o ~traced));
            print_endline (Outcome.result_line o ~traced);
            if o.Outcome.errors <> [] then exit 1))

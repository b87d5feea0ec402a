(* batch-reduce: the paper's reductions run in-process, as
   [shapmc shap -m reduction] runs them, in a child process of their own
   so that its CPU time and peak RSS belong to the workload alone.  No
   socket, no cache, one domain (the CLI default). *)

module J = Tiny_json

(* The Lemma 3.4 direction asks a Shapley oracle; this one compiles the
   formula to a d-D circuit and solves on it (Theorem 4.1). *)
let circuit_oracle ?(compile = Compile.compile) ?(shap = Circuit_shapley.shap_direct) () =
  { Pipeline.shap_name = "circuit";
    shap = (fun ~vars f -> shap ~vars (compile f)) }

(* ------------------------------------------------------------------ *)
(* The input file: per formula, a line "shap|count N TEXT" and a line
   "= ..." with the reference answer ("VAR:RAT ..." or a count). *)

type item = {
  dir : Inputs.direction;
  vars : int list;
  f : Formula.t;
  expect_shap : (int * Rat.t) list;
  expect_count : Bigint.t;
}

let input_text (fs : Inputs.formula array) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (fi : Inputs.formula) ->
      let f = Parser.formula_of_string_exn fi.Inputs.text in
      let vars = List.init fi.Inputs.n succ in
      let g = Compile.compile f in
      match fi.Inputs.dir with
      | Inputs.Shap ->
        Printf.bprintf b "shap %d %s\n= %s\n" fi.Inputs.n fi.Inputs.text
          (String.concat " "
             (List.map
                (fun (v, r) -> Printf.sprintf "%d:%s" v (Rat.to_string r))
                (List.sort compare (Circuit_shapley.shap_direct ~vars g))))
      | Inputs.Count ->
        Printf.bprintf b "count %d %s\n= %s\n" fi.Inputs.n fi.Inputs.text
          (Bigint.to_string (Count.count ~vars g)))
    fs;
  Buffer.contents b

let parse_input text =
  let rec go acc = function
    | spec :: expect :: rest when String.length expect >= 2 ->
      let dir, n, ftext =
        Scanf.sscanf spec "%s %d %[^\n]" (fun d n t ->
            ( (match d with
               | "shap" -> Inputs.Shap
               | "count" -> Inputs.Count
               | _ -> failwith ("bad input line: " ^ spec)),
              n,
              t ))
      in
      let answer = String.sub expect 2 (String.length expect - 2) in
      let item =
        { dir;
          vars = List.init n succ;
          f = Parser.formula_of_string_exn ftext;
          expect_shap =
            (match dir with
             | Inputs.Shap ->
               List.map
                 (fun p ->
                   let i = String.index p ':' in
                   ( int_of_string (String.sub p 0 i),
                     Rat.of_string (String.sub p (i + 1) (String.length p - i - 1)) ))
                 (String.split_on_char ' ' answer)
             | Inputs.Count -> []);
          expect_count =
            (match dir with
             | Inputs.Count -> Bigint.of_string answer
             | Inputs.Shap -> Bigint.zero) }
      in
      go (item :: acc) rest
    | [] | [ "" ] -> Array.of_list (List.rev acc)
    | line :: _ -> failwith ("bad input line: " ^ line)
  in
  go [] (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Child side *)

type oracles = { count : Pipeline.count_oracle; shap : Pipeline.shap_oracle }

let answer o it =
  match it.dir with
  | Inputs.Shap ->
    let got =
      List.sort compare (Pipeline.shap_via_count_oracle ~oracle:o.count ~vars:it.vars it.f)
    in
    List.length got = List.length it.expect_shap
    && List.for_all2
         (fun (v, r) (v', r') -> v = v' && Rat.equal r r')
         got it.expect_shap
  | Inputs.Count ->
    Bigint.equal
      (Pipeline.count_via_shap_oracle ~oracle:o.shap ~vars:it.vars it.f)
      it.expect_count

type window = {
  subs : Outcome.sub list;
  ops : int;
  failed : int;
  shap_answers : int;
  shap_seconds : float;  (* answer time of the Lemma 3.2+3.3 direction *)
  calib : float list;  (* Calib.chunk times, between the sub-windows *)
}

(* Whole passes over the formulas until [seconds] have passed, so every
   run does the same mix.  A pass makes one sub-window: 128 answers,
   twelve of them beyond p90.  Between sub-windows, untimed, the
   machine's speed is taken on the same CPU thread. *)
let run_window items o ~seconds ~on_answer =
  let failed = ref 0 and ops = ref 0 and shap_n = ref 0 and shap_s = ref 0. in
  let subs = ref [] and calib = ref [] in
  let t_start = Wire.now () in
  let pass = ref 0 in
  while Wire.now () -. t_start < seconds do
    let lat = Stats.buf () in
    let t0 = Wire.now () and cpu0 = Calib.cpu_now () and host0 = Calib.host () in
    Array.iteri
      (fun i it ->
        let t0 = Wire.now () in
        let ok = on_answer ~pass:!pass ~i it (fun () -> answer o it) in
        let dt = Wire.now () -. t0 in
        incr ops;
        if ok then Stats.push lat (dt *. 1000.) else incr failed;
        if it.dir = Inputs.Shap then begin
          incr shap_n;
          shap_s := !shap_s +. dt
        end)
      items;
    incr pass;
    let lat_ms = Stats.contents lat in
    subs :=
      { Outcome.ops = Array.length lat_ms;
        seconds = Wire.now () -. t0;
        cpu_s = Calib.cpu_now () -. cpu0;
        lat_ms;
        withheld = Calib.withheld host0 (Calib.host ()) }
      :: !subs;
    for _ = 1 to 3 do
      calib := Calib.chunk () :: !calib
    done
  done;
  { subs = List.rev !subs;
    ops = !ops;
    failed = !failed;
    shap_answers = !shap_n;
    shap_seconds = !shap_s;
    calib = !calib }

let plain = { count = Pipeline.dpll_count_oracle; shap = circuit_oracle () }

(* One untimed pass over the formulas; the number of wrong answers. *)
let pass items = Array.fold_left (fun n it -> if answer plain it then n else n + 1) 0 items

(* The traced half: the same oracles behind wrappers that time each call
   and record it as a span under its answer's span. *)
let traced_window items ~seconds ~spans =
  let parent = ref 0 and rid = ref "" in
  let dpll_s = ref 0. and dpll_calls = ref 0 in
  let compile_s = ref 0. and shap_s = ref 0. and alloc = ref 0. in
  let gates = ref 0 and shap_calls = ref 0 in
  let timed layer name acc f =
    let r, dt = Spans.time spans ~parent:!parent ~rid:!rid ~layer name (fun _ -> f ()) in
    acc := !acc +. dt;
    r
  in
  let count =
    { Pipeline.dpll_count_oracle with
      Pipeline.count =
        (fun ~vars f ->
          incr dpll_calls;
          timed "counting" "Dpll count oracle" dpll_s (fun () ->
              Pipeline.dpll_count_oracle.Pipeline.count ~vars f)) }
  in
  let shap =
    circuit_oracle
      ~compile:(fun f ->
        let g = timed "circuits" "Compile.compile" compile_s (fun () -> Compile.compile f) in
        gates := !gates + Circuit.size g;
        g)
      ~shap:(fun ~vars g ->
        incr shap_calls;
        let a0 = Gc.allocated_bytes () in
        let r =
          timed "core" "Circuit_shapley.shap_direct" shap_s (fun () ->
              Circuit_shapley.shap_direct ~vars g)
        in
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        r)
      ()
  in
  let on_answer ~pass ~i it f =
    let name =
      match it.dir with
      | Inputs.Shap -> "Pipeline.shap_via_count_oracle"
      | Inputs.Count -> "Pipeline.count_via_shap_oracle"
    in
    rid := Printf.sprintf "b-%d-%d" pass i;
    fst
      (Spans.time spans ~rid:!rid ~layer:"core" name (fun id ->
           parent := id;
           f ()))
  in
  let win = run_window items { count; shap } ~seconds ~on_answer in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let shap_answers = win.shap_answers in
  ( win,
    [ ("counting.oracle_ms", per shap_answers (!dpll_s *. 1000.));
      ( "counting.oracle_share",
        if win.shap_seconds = 0. then 0. else !dpll_s /. win.shap_seconds );
      ("core.reduce_ms", per shap_answers ((win.shap_seconds -. !dpll_s) *. 1000.));
      ("core.oracle_calls_per_answer", per shap_answers (float_of_int !dpll_calls));
      ("circuits.compile_ms", per !shap_calls (!compile_s *. 1000.));
      ("circuits.gates", per !shap_calls (float_of_int !gates));
      ("core.shapley_ms", per !shap_calls (!shap_s *. 1000.));
      ("core.shapley_alloc_mb", per !shap_calls (!alloc /. 1048576.)) ] )

let sub_json (s : Outcome.sub) =
  J.Obj
    [ ("ops", J.Int s.Outcome.ops);
      ("seconds", J.Float s.Outcome.seconds);
      ("cpu_s", J.Float s.Outcome.cpu_s);
      ("lat_ms", J.List (Array.to_list (Array.map (fun x -> J.Float x) s.Outcome.lat_ms)));
      ("withheld", J.Float s.Outcome.withheld) ]

let sub_of_json j =
  let num k = Option.get (Option.bind (J.member k j) J.to_float) in
  { Outcome.ops = int_of_float (num "ops");
    seconds = num "seconds";
    cpu_s = num "cpu_s";
    lat_ms =
      Array.of_list (List.filter_map J.to_float (Option.get (Reference.list "lat_ms" j)));
    withheld = num "withheld" }

let window_json w =
  J.Obj
    [ ("ops", J.Int w.ops);
      ("failed", J.Int w.failed);
      ("subs", J.List (List.map sub_json w.subs));
      ("calib", J.List (List.map (fun x -> J.Float x) w.calib)) ]

(* [--child]: parse the input, say "ready" (the parent's set-up clock
   stops there), then measure and print one JSON line. *)
let child ~input ~setup_only ~seconds ~traced ~trace_out =
  Par.set_jobs 1;
  let items = parse_input (Wire.read_file input) in
  print_string "ready\n";
  flush stdout;
  if not setup_only then begin
    (* The warm-up: the memo tables of the counting core fill and the
       heap grows to its working size before the clock starts. *)
    let warm_failed = pass items in
    let half = if traced then seconds /. 2. else seconds in
    let plain_win =
      run_window items plain ~seconds:half ~on_answer:(fun ~pass:_ ~i:_ _ f -> f ())
    in
    let traced_part =
      if not traced then []
      else begin
        let spans = Spans.create () in
        let win, layers = traced_window items ~seconds:half ~spans in
        Spans.write_chrome spans trace_out;
        let ratio = Outcome.throughput win.subs /. Outcome.throughput plain_win.subs in
        [ ("traced", window_json win);
          ( "layers",
            J.Obj
              ((("obs.trace_overhead_ratio", J.Float ratio)
                :: List.map (fun (k, v) -> (k, J.Float v)) layers)) ) ]
      end
    in
    let rss_mb = Wire.peak_rss_mb (Unix.getpid ()) in
    (* One more pass with the oracle calls fanned over 2 domains: printed
       next to the 1-domain pass time, not gated. *)
    Par.set_jobs 2;
    let t0 = Wire.now () in
    let jobs2_failed = pass items in
    let jobs2_pass_s = Wire.now () -. t0 in
    print_string
      (J.to_string
         (J.Obj
            ([ ("untraced", window_json plain_win);
               ("rss_mb", J.Float rss_mb);
               ("jobs2_pass_s", J.Float jobs2_pass_s);
               (* the warm-up and the 2-domain pass *)
               ("extra_ops", J.Int (2 * Array.length items));
               ("extra_failed", J.Int (warm_failed + jobs2_failed)) ]
             @ traced_part)));
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Parent side *)

let run ~workdir ~seed ~seconds ~traced ~setups ~trace_path =
  let fs = Inputs.formulas seed in
  let digest = Inputs.formulas_digest fs in
  let input = Filename.concat workdir "batch.in" in
  Wire.write_file input (input_text fs);
  let spawn i extra =
    Wire.spawn ~prog:Sys.executable_name
      ~args:([ "--child"; "batch-reduce"; "--input"; input ] @ extra)
      ~stderr_path:(Filename.concat workdir (Printf.sprintf "child-%d.err" i))
  in
  let ready p t0 =
    match Wire.read_line p ~timeout:60. with
    | Some "ready" -> Wire.now () -. t0
    | _ ->
      ignore (Wire.terminate p ~timeout:5.);
      failwith "batch child did not start"
  in
  let errors = ref [] in
  let check_exit p =
    match Wire.wait p ~timeout:60. with
    | Ok () -> ()
    | Error why -> errors := ("batch child " ^ why) :: !errors
  in
  let setup_times =
    Array.init (setups - 1) (fun i ->
        let t0 = Wire.now () in
        let p = spawn i [ "--setup-only" ] in
        let t = ready p t0 in
        check_exit p;
        t)
  in
  let t0 = Wire.now () in
  let p =
    spawn setups
      ([ "--seconds"; Printf.sprintf "%.17g" seconds ]
       @ if traced then [ "--traced"; "--trace-out"; trace_path ] else [])
  in
  let last_setup = ready p t0 in
  let out = Wire.read_rest p ~timeout:(seconds +. 150.) in
  check_exit p;
  let j =
    match
      List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))
    with
    | last :: _ -> J.parse last
    | [] -> failwith "batch child printed no result"
  in
  let win k =
    let w = Option.get (J.member k j) in
    let num k = int_of_float (Option.get (Option.bind (J.member k w) J.to_float)) in
    (List.map sub_of_json (Option.get (Reference.list "subs" w)), num "ops", num "failed")
  in
  let count k = int_of_float (Option.get (Option.bind (J.member k j) J.to_float)) in
  let subs, ops, failed = win "untraced" in
  let attempted, failed =
    let ops = ops + count "extra_ops" and failed = failed + count "extra_failed" in
    if traced then
      let _, t_ops, t_failed = win "traced" in
      (ops + t_ops, failed + t_failed)
    else (ops, failed)
  in
  let layers =
    if not traced then []
    else
      Outcome.layers
        (List.filter_map
           (fun (k, v) -> Option.map (fun x -> (k, x)) (J.to_float v))
           (match J.member "layers" j with Some (J.Obj l) -> l | _ -> []))
  in
  let scale =
    Calib.scale
      (Array.of_list
         (List.filter_map J.to_float
            (Option.get (Reference.list "calib" (Option.get (J.member "untraced" j))))))
  in
  let setup_s = Stats.median (Array.append setup_times [| last_setup |]) in
  { Outcome.workload = Inputs.name Inputs.Batch_reduce;
    seed;
    digest;
    attempted;
    failed;
    errors = List.rev !errors;
    e2e =
      Outcome.e2e ~scale ~setup_s
        ~rss_mb:(Option.get (Option.bind (J.member "rss_mb" j) J.to_float))
        subs;
    layers;
    notes =
      Outcome.e2e_notes ~scale ~setup_s subs ~attempted ~failed
      @ [ Outcome.metric "pass_s" "s"
            (Stats.median (Array.of_list (List.map (fun s -> s.Outcome.seconds) subs)));
          Outcome.metric "jobs2_pass_s" "s"
            (Option.get (Option.bind (J.member "jobs2_pass_s" j) J.to_float)) ] }

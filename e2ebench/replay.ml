(* The traced run's in-process replay: a serve workload's distinct inputs
   go once more through each layer's public functions, timed from here,
   one span per call.  This is how the per-layer numbers are taken
   without instrumenting the program. *)

(* Mean seconds per call of [f], repeating it until 2 ms have passed so
   microsecond calls are not lost in the clock. *)
let per_call f =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n = 0 || (!n < 1000 && Unix.gettimeofday () -. t0 < 0.002) do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !n

(* At most [k] elements, evenly spread. *)
let spread k a =
  let n = Array.length a in
  let step = max 1 ((n + k - 1) / k) in
  Array.init ((n + step - 1) / step) (fun i -> a.(i * step))

let mean l = Stats.mean (Array.of_list l)

let ms x = x *. 1000.

let us x = x *. 1e6

let mb bytes = bytes /. 1048576.

(* Database, circuit, core and cache layers on up to 32 of the
   workload's databases. *)
let solver_layers spans w (s : Inputs.serve) ~files =
  let exact_path = w <> Inputs.Serve_approx in
  let load = ref [] and lineage = ref [] and compile = ref [] in
  let gates = ref [] and kcount = ref [] and shapley = ref [] in
  let alloc = ref [] and hit = ref [] and fill = ref [] and solve = ref [] in
  let add r x = r := x :: !r in
  Array.iter
    (fun i ->
      let d = s.Inputs.dbs.(i) in
      let db = d.Inputs.db and q = d.Inputs.query in
      ignore
        (Spans.time spans ~layer:"bench" ("replay " ^ d.Inputs.name)
           (fun parent ->
             let time layer name f =
               Spans.time spans ~parent ~layer name (fun _ -> f ())
             in
             let _, dt = time "db" "Db_parser.parse_file" (fun () ->
                 Db_parser.parse_file files.(i)) in
             add load dt;
             (* the circuit the daemon's exact path solves on *)
             let circuit =
               if d.Inputs.hierarchical then begin
                 let g, dt = time "db" "Safe_plan.lineage_circuit" (fun () ->
                     Safe_plan.lineage_circuit db q) in
                 add lineage dt;
                 Some g
               end
               else begin
                 let f, dt = time "db" "Lineage.lineage_formula" (fun () ->
                     Lineage.lineage_formula db q) in
                 add lineage dt;
                 if exact_path then begin
                   let g, dt = time "circuits" "Compile.compile" (fun () ->
                       Compile.compile f) in
                   add compile dt;
                   Some g
                 end
                 else None
               end
             in
             circuit
             |> Option.iter (fun g ->
                    let vars = Inputs.facts d in
                    add gates (float_of_int (Circuit.size g));
                    let _, dt = time "circuits" "Count.count_by_size" (fun () ->
                        Count.count_by_size ~vars g) in
                    add kcount dt;
                    let a0 = Gc.allocated_bytes () in
                    let _, dt = time "core" "Circuit_shapley.shap_direct" (fun () ->
                        Circuit_shapley.shap_direct ~vars g) in
                    add alloc (mb (Gc.allocated_bytes () -. a0));
                    add shapley dt;
                    let _, dt = time "core" "Dichotomy.shapley" (fun () ->
                        Dichotomy.shapley db q) in
                    add solve dt;
                    let cache = Cache.create () in
                    let _, dt = time "cache" "Dichotomy.shapley_cached fill" (fun () ->
                        Dichotomy.shapley_cached ~cache db q) in
                    add fill dt;
                    let dt, _ = time "cache" "Dichotomy.shapley_cached hit" (fun () ->
                        per_call (fun () -> Dichotomy.shapley_cached ~cache db q)) in
                    add hit dt))))
    (spread 32 (Array.init (Array.length s.Inputs.dbs) Fun.id));
  let sum l = List.fold_left ( +. ) 0. l in
  [ ("db.load_ms", ms (mean !load));
    ("db.lineage_ms", ms (mean !lineage));
    ("circuits.compile_ms", ms (mean !compile));
    ("circuits.gates", mean !gates);
    ("circuits.kcount_ms", ms (mean !kcount));
    ("core.shapley_ms", ms (mean !shapley));
    ("core.shapley_alloc_mb", mean !alloc);
    ("cache.hit_us", us (mean !hit));
    ( "cache.fill_overhead_ratio",
      if !solve = [] then 0. else sum !fill /. sum !solve ) ]

(* The estimator behind /v1/shapley/approx, on the first 16 requests of
   the measured sequence. *)
let estimator_layers spans (s : Inputs.serve) =
  let times = ref [] and samples = ref [] and evals = ref [] in
  Array.iter
    (fun i ->
      let r = s.Inputs.distinct.(i) in
      match r.Inputs.kind with
      | Inputs.Approx seed ->
        let rep, dt =
          Spans.time spans ~layer:"core" "Sampling.shap_estimate" (fun _ ->
              Reference.approx s.Inputs.dbs.(r.Inputs.db_index) seed)
        in
        times := dt :: !times;
        samples := float_of_int rep.Sampling.samples_used :: !samples;
        evals := float_of_int rep.Sampling.evals :: !evals
      | Inputs.Page | Inputs.Fact _ -> ())
    (Array.sub s.Inputs.sequence 0 (min 16 (Array.length s.Inputs.sequence)));
  [ ("core.estimate_ms", ms (mean !times));
    ("core.estimate_samples", mean !samples);
    ("core.estimate_evals", mean !evals) ]

(* The serve layer on the first requests of the measured sequence:
   parsing the request bytes, dispatching on the API's routes with a
   warm cache, and encoding the response the daemon sent. *)
let serve_layers spans (s : Inputs.serve) ~bodies =
  let open Shapmc_serve in
  let api =
    Api.of_pairs
      (Array.to_list
         (Array.map
            (fun (d : Inputs.db) -> (d.Inputs.name, (d.Inputs.db, d.Inputs.query)))
            s.Inputs.dbs))
  in
  let routes = Api.routes api in
  let first = min 64 (Array.length s.Inputs.sequence) in
  let parse = ref [] and handle = ref [] and encode = ref [] in
  Array.iter
    (fun i ->
      let r = s.Inputs.distinct.(i) in
      let bytes = Wire.render ~meth:"POST" ~path:r.Inputs.path r.Inputs.body in
      let parse_once () =
        let p = Http.create ~limits:Limits.default in
        Http.feed p bytes;
        Http.poll p
      in
      let req =
        match parse_once () with
        | Http.Request req -> req
        | _ -> failwith "replayed request does not parse"
      in
      let dt, _ =
        Spans.time spans ~layer:"serve" "Http.feed/poll" (fun _ -> per_call parse_once)
      in
      parse := dt :: !parse;
      (* the first dispatch fills the in-process cache *)
      ignore (Router.dispatch routes req);
      let dt, _ =
        Spans.time spans ~layer:"serve" "Router.dispatch" (fun _ ->
            per_call (fun () -> Router.dispatch routes req))
      in
      handle := dt :: !handle;
      match Hashtbl.find_opt bodies i with
      | None -> ()
      | Some body ->
        let json = Tiny_json.parse body in
        let dt, _ =
          Spans.time spans ~layer:"serve" "Json_codec+render_response" (fun _ ->
              per_call (fun () ->
                  let resp = Json_codec.json_response json in
                  Http.render_response ~headers:resp.Router.headers
                    ~keep_alive:true ~status:resp.Router.status
                    ~body:resp.Router.body ()))
        in
        encode := dt :: !encode)
    (Array.sub s.Inputs.sequence 0 first);
  [ ("serve.http_parse_us", us (mean !parse));
    ("serve.handler_us", us (mean !handle));
    ("serve.encode_us", us (mean !encode)) ]

let run spans w s ~files ~bodies =
  solver_layers spans w s ~files
  @ (match w with
     | Inputs.Serve_approx -> estimator_layers spans s
     | _ -> [])
  @ serve_layers spans s ~bodies

(* The three serve workloads: a closed loop of 2 client domains, each on
   one keep-alive connection, against a real [shapmc serve] daemon. *)

module J = Tiny_json

let clients = 2

(* One measured operation: client index, request number, start, end,
   answered correctly. *)
type record = { client : int; k : int; t0 : float; t1 : float; ok : bool }

(* Run [op conn k] for k = 0, 1, ... on [clients] domains until the limit:
   a request count or a deadline (the requests in flight at the deadline
   complete).  Each client sends its next request only after the last
   answer arrived.  A raised exception is an I/O error: the op fails and
   the connection is reopened.  [main] runs in the calling domain while
   the clients work. *)
let drive ~port ~limit ?(main = ignore) op =
  let counter = Atomic.make 0 in
  let worker client () =
    let c = Wire.conn port in
    let log = ref [] in
    let rec loop () =
      let k = Atomic.fetch_and_add counter 1 in
      let go =
        match limit with `Count n -> k < n | `Until t -> Wire.now () < t
      in
      if go then begin
        let t0 = Wire.now () in
        let ok =
          try op c k
          with Unix.Unix_error _ | Failure _ | Invalid_argument _ | Not_found ->
            Wire.close c;
            false
        in
        log := { client; k; t0; t1 = Wire.now (); ok } :: !log;
        loop ()
      end
    in
    loop ();
    Wire.close c;
    !log
  in
  let domains = List.init clients (fun c -> Domain.spawn (worker c)) in
  main ();
  List.concat_map Domain.join domains

let render (r : Inputs.request) ?rid () =
  Wire.render ~meth:"POST" ~path:r.Inputs.path ?rid r.Inputs.body

(* Every distinct request once, each answer checked against its
   reference; the verified bodies are what the measured window compares
   byte for byte, which keeps client work small on the hot path. *)
let warm_up (d : Daemon.t) (s : Inputs.serve) expects =
  let reqs = Array.map (fun r -> render r ()) s.Inputs.distinct in
  (* In the order the measured loop first asks for them, so the caches
     are in their steady state when it starts: on serve-churn the
     requests it starts with were evicted longest ago. *)
  let order =
    let seen = Array.make (Array.length reqs) false in
    let first = ref [] in
    Array.iter
      (fun i ->
        if not seen.(i) then begin
          seen.(i) <- true;
          first := i :: !first
        end)
      (Array.append s.Inputs.sequence (Array.init (Array.length reqs) Fun.id));
    Array.of_list (List.rev !first)
  in
  let bodies = Hashtbl.create 256 and lock = Mutex.create () in
  let op c k =
    let i = order.(k) in
    let r = Wire.exchange c reqs.(i) in
    r.Wire.status = 200
    && Reference.check expects.(i) r.Wire.body
    && (Mutex.protect lock (fun () -> Hashtbl.replace bodies i r.Wire.body);
        true)
  in
  let log = drive ~port:d.Daemon.port ~limit:(`Count (Array.length reqs)) op in
  (bodies, List.length log, List.length (List.filter (fun r -> not r.ok) log))

let rid k = Printf.sprintf "e2e-%d" k

type window = {
  records : record list;
  subs : Outcome.sub list;
  rss_mb : float;  (* daemon VmHWM at the end of the window *)
}

(* The measured window, cut into sub-windows of about [sub] seconds at
   whose boundaries the daemon's CPU time is read. *)
let window (d : Daemon.t) (s : Inputs.serve) expects bodies ~seconds ~sub ~traced =
  let reqs = Array.map (fun r -> render r ()) s.Inputs.distinct in
  let len = Array.length s.Inputs.sequence in
  let op c k =
    let i = s.Inputs.sequence.(k mod len) in
    let req =
      if traced then render s.Inputs.distinct.(i) ~rid:(rid k) () else reqs.(i)
    in
    let r = Wire.exchange c req in
    r.Wire.status = 200
    &&
    match Hashtbl.find_opt bodies i with
    | Some b -> String.equal b r.Wire.body
    | None -> Reference.check expects.(i) r.Wire.body
  in
  let nsub = max 1 (int_of_float (seconds /. sub)) in
  let t_start = Wire.now () in
  let mark () = (Wire.now (), Daemon.cpu_seconds d, Calib.host ()) in
  let marks = ref [ mark () ] in
  let sample () =
    for b = 1 to nsub do
      let left = t_start +. (float_of_int b *. seconds /. float_of_int nsub) -. Wire.now () in
      if left > 0. then Unix.sleepf left;
      marks := mark () :: !marks
    done
  in
  let records =
    drive ~port:d.Daemon.port ~limit:(`Until (t_start +. seconds)) ~main:sample op
  in
  let answered =
    List.sort (fun a b -> Float.compare a.t1 b.t1) (List.filter (fun r -> r.ok) records)
  in
  let rec slices acc rest = function
    | (ta, ca, ha) :: ((tb, cb, hb) :: _ as more) ->
      let inside, rest = List.partition (fun r -> r.t1 < tb) rest in
      let sub =
        { Outcome.ops = List.length inside;
          seconds = tb -. ta;
          cpu_s = cb -. ca;
          lat_ms = Array.of_list (List.map (fun r -> (r.t1 -. r.t0) *. 1000.) inside);
          withheld = Calib.withheld ha hb }
      in
      slices (sub :: acc) rest more
    | _ -> List.rev acc
  in
  { records; subs = slices [] answered (List.rev !marks); rss_mb = Daemon.peak_rss_mb d }

let failures w = List.length (List.filter (fun r -> not r.ok) w.records)

(* ------------------------------------------------------------------ *)
(* Traced window: what the daemon itself reports *)

type access = { ts : float; wall : float; bytes : float; oracle_calls : float }

(* Access-log lines of measured requests, keyed by request id. *)
let read_access path =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match J.parse_opt line with
      | None -> ()
      | Some j -> (
          let num k = Option.bind (J.member k j) J.to_float in
          match (Reference.str "id" j, num "ts", num "wall_seconds", num "bytes", num "oracle_calls") with
          | Some id, Some ts, Some wall, Some bytes, Some oracle_calls
            when String.starts_with ~prefix:"e2e-" id ->
            Hashtbl.replace tbl id { ts; wall; bytes; oracle_calls }
          | _ -> ()))
    (String.split_on_char '\n' (Wire.read_file path));
  tbl

let observed spans w ~access ~before ~after =
  let lines = Hashtbl.fold (fun _ a acc -> a :: acc) access [] in
  let requests = float_of_int (max 1 (List.length lines)) in
  let wire = ref [] in
  List.iter
    (fun r ->
      let id = rid r.k in
      let client =
        Spans.add spans ~rid:id ~tid:(r.client + 1) ~layer:"client" ~name:"request" r.t0 r.t1
      in
      match Hashtbl.find_opt access id with
      | Some a when r.ok ->
        ignore
          (Spans.add spans ~parent:client ~rid:id ~tid:(r.client + 1) ~layer:"serve"
             ~name:"daemon" a.ts (a.ts +. a.wall));
        wire := ((r.t1 -. r.t0 -. a.wall) *. 1000.) :: !wire
      | _ -> ())
    w.records;
  let delta ?tier name = Daemon.total ?tier after name -. Daemon.total ?tier before name in
  let hit_ratio tier =
    let h = delta ~tier "shapmc_cache_hits_total"
    and m = delta ~tier "shapmc_cache_misses_total" in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let field f = Array.of_list (List.map f lines) in
  [ ("serve.daemon_wall_ms_p50", Stats.median (field (fun a -> a.wall *. 1000.)));
    ("serve.wire_ms_p50", Stats.median (Array.of_list !wire));
    ("serve.response_bytes", Stats.mean (field (fun a -> a.bytes)));
    ("serve.oracle_calls_per_req", Stats.mean (field (fun a -> a.oracle_calls)));
    ("cache.shapley_hit_ratio", hit_ratio "shapley");
    ("cache.circuit_hit_ratio", hit_ratio "circuit");
    ("cache.counts_hit_ratio", hit_ratio "counts");
    ("cache.evictions_per_req", delta "shapmc_cache_evictions_total" /. requests);
    ("cache.entries", Daemon.total after "shapmc_cache_entries") ]

(* ------------------------------------------------------------------ *)

(* One run.  A calibration child times the machine throughout (see
   Calib).  Untraced: [setups] daemon start-ups (set-up time is their
   median; the last one serves), a warm-up, then the measured window.
   Traced: the window is halved and a second daemon, with an access log,
   serves the other half while the benchmark records spans; then the
   in-process replay takes the per-layer numbers. *)
let run ~shapmc ~workdir ~w ~seed ~seconds ~traced ~setups ~corrupt ~trace_path =
  let s = Inputs.serve w seed in
  (* at least ten answers beyond p90 in every sub-window *)
  let sub = match w with Inputs.Serve_churn -> 2. | _ -> 0.5 in
  let digest = Inputs.serve_digest s in
  let files =
    Array.map
      (fun (d : Inputs.db) ->
        let path = Filename.concat workdir (d.Inputs.name ^ ".db") in
        Wire.write_file path d.Inputs.text;
        path)
      s.Inputs.dbs
  in
  let expects = Reference.expectations s ~corrupt in
  let errors = ref [] in
  let stop d = Option.iter (fun e -> errors := e :: !errors) (Daemon.stop d) in
  let start i ?access_log () =
    Daemon.start ~shapmc ?access_log
      ~stderr_path:(Filename.concat workdir (Printf.sprintf "daemon-%d.err" i))
      (Array.to_list files)
  in
  let calib = Calib.start ~stderr_path:(Filename.concat workdir "calibrate.err") in
  let setup_times =
    Array.init setups (fun i ->
        let d, t = start i () in
        if i < setups - 1 then stop d;
        (d, t))
  in
  let d = fst setup_times.(setups - 1) in
  let attempted = ref 0 and failed = ref 0 in
  let count ~warm_n ~warm_failed win =
    attempted := !attempted + warm_n + List.length win.records;
    failed := !failed + warm_failed + failures win
  in
  let bodies, warm_n, warm_failed = warm_up d s expects in
  let untraced =
    window d s expects bodies ~sub ~traced:false
      ~seconds:(if traced then seconds /. 2. else seconds)
  in
  stop d;
  count ~warm_n ~warm_failed untraced;
  let layers =
    if not traced then []
    else begin
      let access_log = Filename.concat workdir "access.jsonl" in
      let d, _ = start setups ~access_log () in
      let bodies, warm_n, warm_failed = warm_up d s expects in
      let before = Daemon.scrape d in
      let tw = window d s expects bodies ~sub ~traced:true ~seconds:(seconds /. 2.) in
      let after = Daemon.scrape d in
      stop d;
      count ~warm_n ~warm_failed tw;
      let spans = Spans.create () in
      let observed = observed spans tw ~access:(read_access access_log) ~before ~after in
      let replayed = Replay.run spans w s ~files ~bodies in
      Spans.write_chrome spans trace_path;
      Outcome.layers
        ((( "obs.trace_overhead_ratio",
            Outcome.throughput tw.subs /. Outcome.throughput untraced.subs )
          :: observed)
         @ replayed)
    end
  in
  let scale = Calib.scale (Calib.stop calib) in
  let setup_s = Stats.median (Array.map snd setup_times) in
  { Outcome.workload = Inputs.name w;
    seed;
    digest;
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    e2e = Outcome.e2e ~scale ~setup_s ~rss_mb:untraced.rss_mb untraced.subs;
    layers;
    notes =
      Outcome.e2e_notes ~scale ~setup_s untraced.subs ~attempted:!attempted
        ~failed:!failed }

(* Serving-side observability state, one value per server process, and
   the routes that read it:

   - a bounded ring of the last N request profiles (id, timings, oracle
     aggregates, and the request's scoped event buffer) behind
     [GET /v1/debug/requests] and [GET /v1/debug/requests/:id];
   - rolling 1m/5m SLO windows (error ratio + latency percentiles)
     whose snapshots are exported as gauges on every [GET /metrics];
   - the optional JSONL access log, written on every completion.

   [record] is called by the server once per answered request, after
   the response bytes are on the wire; everything here is cheap
   bookkeeping under small local locks, never on the request's critical
   path.  [now] is injectable so SLO rotation is testable. *)

module J = Tiny_json

type profile = {
  p_id : string;
  p_trace_id : string;
  p_route : string;
  p_meth : string;
  p_path : string;
  p_status : int;
  p_start : float;  (* epoch seconds at request parse *)
  p_wall_seconds : float;
  p_queue_seconds : float;  (* accept-to-worker delay (first request) *)
  p_oracle_calls : int;
  p_oracle_seconds : float;
  p_bytes : int;  (* response body bytes *)
  p_jobs : int;
  p_events : Trace.event list;
  p_events_dropped : int;
}

type t = {
  ring : profile option array;  (* [||] disables the ring *)
  mutable total : int;  (* profiles ever recorded *)
  ring_lock : Mutex.t;
  slo_1m : Sliding.t;
  slo_5m : Sliding.t;
  access : Access_log.t option;
}

let default_ring = 64

let create ?(ring = default_ring) ?access () =
  { ring = Array.make (max 0 ring) None;
    total = 0;
    ring_lock = Mutex.create ();
    slo_1m = Sliding.create ~window:60.;
    slo_5m = Sliding.create ~window:300.;
    access }

let locked t f =
  Mutex.lock t.ring_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ring_lock) f

(* ------------------------------------------------------------------ *)
(* JSON shapes.  The access-log line and the debug profile share field
   names, so one reader handles both. *)

let scalar_fields p =
  [ ("ts", J.Float p.p_start);
    ("id", J.Str p.p_id);
    ("trace", J.Str p.p_trace_id);
    ("method", J.Str p.p_meth);
    ("route", J.Str p.p_route);
    ("path", J.Str p.p_path);
    ("code", J.Int p.p_status);
    ("bytes", J.Int p.p_bytes);
    ("wall_seconds", J.Float p.p_wall_seconds);
    ("queue_seconds", J.Float p.p_queue_seconds);
    ("oracle_seconds", J.Float p.p_oracle_seconds);
    ("oracle_calls", J.Int p.p_oracle_calls);
    ("jobs", J.Int p.p_jobs) ]

let access_line p = J.Obj (scalar_fields p)

let summary_json p =
  J.Obj (scalar_fields p @ [ ("events", J.Int (List.length p.p_events)) ])

let profile_json p =
  J.Obj
    (scalar_fields p
     @ [ ("events_dropped", J.Int p.p_events_dropped);
         ("events", J.List (List.map Trace_export.event_to_json p.p_events))
       ])

(* ------------------------------------------------------------------ *)
(* Recording *)

let record ?now t p =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  (* SLO error = server fault (5xx); client errors are not SLO
     violations. *)
  let ok = p.p_status < 500 in
  Sliding.observe ~now t.slo_1m ~ok p.p_wall_seconds;
  Sliding.observe ~now t.slo_5m ~ok p.p_wall_seconds;
  locked t (fun () ->
      if Array.length t.ring > 0 then
        t.ring.(t.total mod Array.length t.ring) <- Some p;
      t.total <- t.total + 1);
  match t.access with
  | Some log -> Access_log.write log (access_line p)
  | None -> ()

(* Newest first. *)
let profiles t =
  locked t (fun () ->
      let n = Array.length t.ring in
      if n = 0 then []
      else
        let stored = min t.total n in
        List.init stored (fun i ->
            t.ring.((t.total - 1 - i + n) mod n))
        |> List.filter_map Fun.id)

let find t id =
  List.find_opt (fun p -> String.equal p.p_id id) (profiles t)

let recorded t = locked t (fun () -> t.total)

(* ------------------------------------------------------------------ *)
(* SLO gauge export *)

let set_slo_gauges ?now ?registry t =
  let set ?labels name v = Metrics.set ?registry ?labels name v in
  List.iter
    (fun (window, slo) ->
      let s = Sliding.snapshot ?now slo in
      let wl = [ ("window", window) ] in
      set ~labels:wl "http_slo_error_ratio" s.Sliding.w_error_ratio;
      set ~labels:wl "http_slo_window_requests"
        (float_of_int s.Sliding.w_requests);
      let quantile q v =
        (* An empty window has no latency; export 0 rather than NaN so
           every scrape stays parseable by strict clients. *)
        set
          ~labels:(("quantile", q) :: wl)
          "http_slo_latency_seconds"
          (if Float.is_nan v then 0. else v)
      in
      quantile "0.5" s.Sliding.w_p50;
      quantile "0.95" s.Sliding.w_p95;
      quantile "0.99" s.Sliding.w_p99)
    [ ("1m", t.slo_1m); ("5m", t.slo_5m) ]


(* ------------------------------------------------------------------ *)
(* The routes that read it *)

let metrics t _req =
  (* Refresh the rolling SLO gauges at scrape time: windows rotate
     lazily, so the exposition reflects "now", not the last request. *)
  set_slo_gauges t;
  { Router.status = 200;
    headers =
      [ ( "Content-Type",
          "application/openmetrics-text; version=1.0.0; charset=utf-8" ) ];
    body = Metrics.to_openmetrics () }

let debug_requests t _req =
  let ps = profiles t in
  Json_codec.json_response
    (J.Obj
       [ ("count", J.Int (List.length ps));
         ("recorded", J.Int (recorded t));
         ("requests", J.List (List.map summary_json ps)) ])

let debug_request t params (req : Http.request) =
  match List.assoc_opt "id" params with
  | None -> Json_codec.error 400 "missing request id"
  | Some id -> (
      match find t id with
      | None ->
        Json_codec.error 404
          (Printf.sprintf
             "no profile for request %s (ring keeps the last %d)" id
             (List.length (profiles t)))
      | Some p -> (
          match List.assoc_opt "format" req.Http.query with
          | Some "chrome" ->
            (* The request's scoped buffer through the standard trace
               exporter: one production request, straight into
               Perfetto. *)
            { Router.status = 200;
              headers = [ ("Content-Type", "application/json") ];
              body = Trace_export.chrome p.p_events }
          | Some other ->
            Json_codec.error 400
              ("unknown format: " ^ other ^ " (try format=chrome)")
          | None -> Json_codec.json_response (profile_json p)))

let routes t =
  [ Router.route Http.GET "/metrics" (metrics t);
    Router.route Http.GET "/v1/debug/requests" (debug_requests t);
    Router.route_params Http.GET "/v1/debug/requests/:id" (debug_request t) ]

type config = {
  host : string;
  port : int;
  jobs : int;
  limits : Limits.t;
  drain_deadline : float;
  debug_requests : int;
  access_log : Access_log.t option;
}

let default_config =
  { host = "127.0.0.1";
    port = 8080;
    jobs = 1;
    limits = Limits.default;
    drain_deadline = 5.;
    debug_requests = Telemetry.default_ring;
    access_log = None }

(* Each request's event buffer holds at most this many events; its
   oracle aggregates stay exact past it. *)
let request_cap = 4096

type t = {
  config : config;
  telemetry : Telemetry.t;
  routes : Router.route list;  (* the caller's, then the telemetry's *)
  stop_flag : bool Atomic.t;
  served : int Atomic.t;
  in_flight : int Atomic.t;
  mutable lsock : Unix.file_descr option;
  mutable bound_port : int;
  mutable exec : Pool.Exec.t option;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
}

let create ?(config = default_config) routes =
  Limits.validate config.limits;
  let telemetry =
    Telemetry.create ~ring:config.debug_requests ?access:config.access_log ()
  in
  { config;
    telemetry;
    routes = routes @ Telemetry.routes telemetry;
    stop_flag = Atomic.make false;
    served = Atomic.make 0;
    in_flight = Atomic.make 0;
    lsock = None;
    bound_port = 0;
    exec = None;
    conns = Hashtbl.create 16;
    conns_lock = Mutex.create () }

let port t = t.bound_port

let requests_served t = Atomic.get t.served

let register_conn t fd =
  Mutex.lock t.conns_lock;
  Hashtbl.replace t.conns fd ();
  Mutex.unlock t.conns_lock

let unregister_conn t fd =
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns fd;
  Mutex.unlock t.conns_lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

let start t =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* SO_REUSEADDR: an immediately restarted server must rebind the port
     its killed predecessor left in TIME_WAIT. *)
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try
     Unix.bind sock
       (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.config.port))
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock 128;
  t.bound_port <-
    (match Unix.getsockname sock with
     | Unix.ADDR_INET (_, p) -> p
     | _ -> t.config.port);
  t.lsock <- Some sock;
  t.exec <- Some (Pool.Exec.create ~jobs:t.config.jobs)

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)

let set_in_flight t delta =
  let v = Atomic.fetch_and_add t.in_flight delta + delta in
  Metrics.set "http_in_flight" (float_of_int v)

(* The one completion path, for routed requests and protocol rejects
   alike: add the id headers, write the response through the
   connection's writer [out], then record [http_requests],
   [http_request_seconds] and the telemetry profile (ring, SLO windows,
   access log) with the same wall seconds, so log and metrics agree.
   [events] is the request's buffer. *)
let complete t out ~rid ~events ~route ~meth ~path ~keep_alive ~t0 ~queue
    (resp : Router.response) =
  let status = resp.Router.status in
  let bytes =
    Http.write_response out
      ~headers:(resp.Router.headers @ Request_id.response_headers rid)
      ~keep_alive ~status ~body:resp.Router.body ()
  in
  let wall = Float.max 0. (Unix.gettimeofday () -. t0) in
  let labels = [ ("route", route); ("code", string_of_int status) ] in
  Metrics.inc ~labels "http_requests";
  Metrics.observe ~labels "http_request_seconds" wall;
  Telemetry.record t.telemetry
    { Telemetry.p_id = Request_id.id rid;
      p_trace_id = Request_id.trace_id rid;
      p_route = route;
      p_meth = meth;
      p_path = path;
      p_status = status;
      p_start = t0;
      p_wall_seconds = wall;
      p_queue_seconds = queue;
      p_oracle_calls = Trace.oracle_calls events;
      p_oracle_seconds = Trace.oracle_seconds events;
      p_bytes = bytes;
      p_jobs = t.config.jobs;
      p_events = Trace.events events;
      p_events_dropped = Trace.dropped events };
  Atomic.incr t.served

(* One full keep-alive connection: parse, dispatch, answer, repeat.
   [accepted] is the accept-loop timestamp. *)
let handle_connection t ~accepted fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.limits.Limits.read_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.limits.Limits.read_timeout
   with Unix.Unix_error _ -> ());
  let buf = Bytes.create 8192 and out = Http.writer fd in
  let rec serve parser_ nreq =
    (* [accepted] to the first request's processing start is its queue
       time (executor backlog). *)
    let queue t0 = if nreq = 0 then Float.max 0. (t0 -. accepted) else 0. in
    (* A protocol-level failure (timeout, parse reject) still gets an
       id, response headers and a profile: route "invalid", no
       events. *)
    let reject status msg =
      let t0 = Unix.gettimeofday () in
      complete t out ~rid:(Request_id.make ()) ~events:(Trace.create ~cap:0 ())
        ~route:"invalid" ~meth:"-" ~path:"-" ~keep_alive:false ~t0
        ~queue:(queue t0)
        (Json_codec.error status msg)
    in
    let rec fill () =
      match Http.poll parser_ with
      | (Http.Request _ | Http.Reject _) as o -> `Outcome o
      | Http.Incomplete -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
            Http.eof parser_;
            `Outcome (Http.poll parser_)
          | k ->
            Http.feed parser_ (Bytes.sub_string buf 0 k);
            fill ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
            `Timeout
          | exception Unix.Unix_error _ -> `Hangup)
    in
    match fill () with
    | `Hangup -> ()
    | `Timeout ->
      (* Mid-request silence is an error; idle between requests is a
         normal keep-alive close. *)
      if Http.bytes_fed parser_ > 0 then reject 408 "request read timed out"
    | `Outcome Http.Incomplete -> assert false (* poll after eof is terminal *)
    | `Outcome (Http.Reject (status, msg)) ->
      (* A clean EOF before any byte of a next request is just the
         client hanging up. *)
      if Http.bytes_fed parser_ > 0 then begin
        reject status msg;
        (* Lingering close: a 413 client may still be mid-upload.
           Closing now would send RST and discard our buffered
           response, so drain the declared remainder (bounded, under
           the same SO_RCVTIMEO) before the caller closes the fd. *)
        let rec drain remaining =
          if remaining > 0 then
            match Unix.read fd buf 0 (min remaining (Bytes.length buf)) with
            | 0 -> ()
            | k -> drain (remaining - k)
            | exception Unix.Unix_error _ -> ()
        in
        drain (Http.drain_hint parser_)
      end
    | `Outcome (Http.Request req) ->
      let t0 = Unix.gettimeofday () in
      let rid = Request_id.of_request req in
      (* The request's buffer: installed for the whole dispatch, so every
         span/oracle/subst event the handler triggers — including work
         fanned out via Par.map / Pool (which re-install it in their
         workers) — accumulates here, stamped with this request's id. *)
      let events = Trace.create ~cap:request_cap ~req:(Request_id.id rid) () in
      let meth = Http.meth_to_string req.Http.meth in
      set_in_flight t 1;
      let route, resp =
        Fun.protect
          ~finally:(fun () -> set_in_flight t (-1))
          (fun () ->
            Obs.with_request events (fun () ->
                Obs.with_span
                  ~attrs:
                    [ ("method", Trace.Str meth);
                      ("path", Trace.Str req.Http.path) ]
                  "http.request"
                  (fun () -> Router.dispatch t.routes req)))
      in
      let keep_alive =
        Http.wants_keep_alive req
        && nreq + 1 < t.config.limits.Limits.max_conn_requests
        && not (Atomic.get t.stop_flag)
      in
      complete t out ~rid ~events ~route ~meth ~path:req.Http.path ~keep_alive
        ~t0 ~queue:(queue t0) resp;
      if keep_alive then begin
        let next = Http.create ~limits:t.config.limits in
        Http.feed next (Http.leftover parser_);
        serve next (nreq + 1)
      end
  in
  serve (Http.create ~limits:t.config.limits) 0

(* ------------------------------------------------------------------ *)
(* Accept loop and shutdown                                            *)

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    match t.lsock with
    | None -> ()
    | Some sock ->
      (* [shutdown] (not [close]) wakes a concurrently blocked
         [accept]; the fallback self-connect covers platforms where it
         does not. *)
      (try Unix.shutdown sock Unix.SHUTDOWN_RECEIVE
       with Unix.Unix_error _ -> ());
      (try
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () ->
             try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             Unix.connect fd
               (Unix.ADDR_INET
                  (Unix.inet_addr_of_string t.config.host, t.bound_port)))
       with Unix.Unix_error _ -> ())

let run t =
  let sock =
    match t.lsock with
    | Some s -> s
    | None -> invalid_arg "Server.run: call start first"
  in
  let exec = Option.get t.exec in
  while not (Atomic.get t.stop_flag) do
    match Unix.accept ~cloexec:true sock with
    | fd, _ ->
      register_conn t fd;
      let accepted = Unix.gettimeofday () in
      let task () =
        Fun.protect
          ~finally:(fun () -> unregister_conn t fd)
          (fun () -> handle_connection t ~accepted fd)
      in
      if not (Pool.Exec.submit exec task) then unregister_conn t fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      () (* signal delivered; the loop re-checks the stop flag *)
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      Atomic.set t.stop_flag true
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  t.lsock <- None;
  (* Drain: finish in-flight connections, then force-close stragglers
     so their workers unblock, and reap the executor. *)
  if not (Pool.Exec.shutdown ~deadline:t.config.drain_deadline exec) then begin
    Mutex.lock t.conns_lock;
    let remaining = Hashtbl.fold (fun fd () acc -> fd :: acc) t.conns [] in
    Mutex.unlock t.conns_lock;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      remaining;
    ignore (Pool.Exec.shutdown ~deadline:1.0 exec)
  end;
  t.exec <- None

(** Per-process serving telemetry and the routes that read it: the
    bounded ring of recent request profiles, rolling 1m/5m SLO windows
    exported as gauges, and the optional JSONL access log.

    {!Server.create} builds one per daemon and serves {!routes} beside
    the caller's; the server calls {!record} once per answered request
    (after the response is on the wire). *)

type profile = {
  p_id : string;  (** the request id every scoped event carries *)
  p_trace_id : string;
  p_route : string;  (** route pattern (bounded cardinality) *)
  p_meth : string;
  p_path : string;  (** concrete decoded path *)
  p_status : int;
  p_start : float;  (** epoch seconds at request parse *)
  p_wall_seconds : float;
  p_queue_seconds : float;
      (** accept-to-worker delay (first request of a connection) *)
  p_oracle_calls : int;
  p_oracle_seconds : float;
  p_bytes : int;  (** response body bytes *)
  p_jobs : int;
  p_events : Trace.event list;  (** the request's scoped buffer *)
  p_events_dropped : int;
}

type t

val default_ring : int
(** 64 profiles. *)

(** [create ()] — [ring] bounds the profile ring ([0] disables it);
    [access] attaches an access log. *)
val create : ?ring:int -> ?access:Access_log.t -> unit -> t

(** Record a completed request: SLO windows, profile ring, access-log
    line. *)
val record : ?now:float -> t -> profile -> unit

(** Ring contents, newest first. *)
val profiles : t -> profile list

(** Lookup by request id (newest match; [None] once evicted). *)
val find : t -> string -> profile option

(** Profiles ever recorded (≥ ring occupancy). *)
val recorded : t -> int

(** {1 JSON shapes} *)

(** The access-log line: one flat object ([ts], [id], [trace],
    [method], [route], [path], [code], [bytes], [wall_seconds],
    [queue_seconds], [oracle_seconds], [oracle_calls], [jobs]). *)
val access_line : profile -> Tiny_json.t

(** {1 SLO export} *)

(** Set [http_slo_error_ratio{window}],
    [http_slo_window_requests{window}] and
    [http_slo_latency_seconds{window,quantile}] gauges (windows [1m] /
    [5m]; quantiles 0.5/0.95/0.99; empty-window latency exports 0) in
    [registry] (default the process-wide {!Metrics} registry). *)
val set_slo_gauges : ?now:float -> ?registry:Metrics.registry -> t -> unit

(** {1 Routes} *)

(** The three routes that read [t]:
    - [GET /metrics] — OpenMetrics exposition of the process-wide
      {!Metrics} registry, with the SLO gauges refreshed
      ({!set_slo_gauges}) at scrape time
    - [GET /v1/debug/requests] — the ring's summaries ({!access_line}
      fields plus the stored event count), newest first, with [count]
      and [recorded]
    - [GET /v1/debug/requests/:id] — one request's profile: the scalars
      plus [events_dropped] and the event list (each via
      {!Trace_export.event_to_json}, so they round-trip through
      {!Trace_export.event_of_json}); [?format=chrome] renders its
      events through {!Trace_export.chrome} for Perfetto *)
val routes : t -> Router.route list

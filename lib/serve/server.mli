(** The [shapmc serve] daemon: a blocking accept loop dispatching
    connections onto a persistent {!Pool.Exec} domain executor.

    Each worker handles whole connections (keep-alive, up to
    [limits.max_conn_requests] requests each); request handlers that
    fan out internally ([Par.map] in the reductions) degrade to
    sequential execution inside a worker, so a server with [jobs]
    workers never runs on more than [jobs + 1] domains (the accept
    loop included).

    The daemon always records.  {!create} builds its {!Telemetry.t}
    from [debug_requests] and [access_log] and serves, beside the
    caller's routes, the three that read it ({!Telemetry.routes}:
    [GET /metrics], [GET /v1/debug/requests],
    [GET /v1/debug/requests/:id]).

    Request-scoped observability: each request gets a {!Request_id}
    (honoring incoming [X-Request-Id] / [traceparent], echoing both on
    the response) and runs with its own {!Trace} buffer installed
    ({!Obs.with_request}, at most 4096 events), so every span and oracle
    event it triggers — across [Par.map]/[Pool] worker domains — is
    captured in a per-request buffer stamped with its id, independent of
    the global [Obs] switch.

    Every completion, a routed request or a protocol-level reject
    (route ["invalid"], method and path ["-"]), takes one path: the id
    headers are added, the response written through the connection's
    {!Http.writer} (one 16 KB buffer per connection; the body's parts
    are never joined), and then
    [http_requests{route,code}] (counter),
    [http_request_seconds{route,code}] (histogram) and the profile
    (ring, rolling SLO windows, access log) are recorded into the
    process-wide {!Metrics} registry and the telemetry.  The
    [http_in_flight] gauge brackets each dispatch. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port — read it back with {!port} *)
  jobs : int;  (** worker domains handling connections *)
  limits : Limits.t;
  drain_deadline : float;
      (** seconds {!run} waits for in-flight requests after {!stop}
          before force-closing their sockets (default 5.) *)
  debug_requests : int;
      (** request profiles the debug ring keeps ([0]: none; default
          {!Telemetry.default_ring}) *)
  access_log : Access_log.t option;
      (** one line per completion (default [None]); the caller opens
          and closes it *)
}

val default_config : config

type t

(** @raise Invalid_argument if [config.limits] fails {!Limits.validate}. *)
val create : ?config:config -> Router.route list -> t

(** Bind (with [SO_REUSEADDR]) and listen.  @raise Unix.Unix_error when
    the address is unavailable. *)
val start : t -> unit

(** The actually bound port (after {!start}). *)
val port : t -> int

(** Accept until {!stop}, then drain: stop accepting, wait up to
    [drain_deadline] for in-flight connections, force-shutdown
    stragglers, join the workers.  Blocks; run it in its own domain
    for in-process use. *)
val run : t -> unit

(** Signal {!run} to shut down, from a signal handler or another
    domain.  Idempotent; safe before {!start}. *)
val stop : t -> unit

(** Requests answered and recorded so far (all connections). *)
val requests_served : t -> int

(** The [shapmc serve] daemon: a blocking accept loop dispatching
    connections onto a persistent {!Pool.Exec} domain executor.

    Each worker handles whole connections (keep-alive, up to
    [limits.max_conn_requests] requests each); request handlers that
    fan out internally ([Par.map] in the reductions) degrade to
    sequential execution inside a worker, so a server with [jobs]
    workers never runs on more than [jobs + 1] domains (the accept
    loop included).

    Observability: every answered request records
    [http_requests{route,code}] (counter),
    [http_request_seconds{route,code}] (histogram) and the
    [http_in_flight] gauge into {!Metrics.default} — scrape them back
    over [GET /metrics].

    Request-scoped observability: each request gets a {!Request_id}
    (honoring incoming [X-Request-Id] / [traceparent], echoing both on
    the response) and runs with its own {!Trace} buffer installed
    ({!Obs.with_request}, at most 4096 events), so every span and oracle
    event it triggers — across [Par.map]/[Pool] worker domains — is
    captured in a per-request buffer stamped with its id, independent of
    the global [Obs] switch.  With a [telemetry] value
    in the config, every completion (including protocol-level 4xx
    rejects, route ["invalid"]) is recorded into the profile ring, the
    rolling SLO windows and the access log. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port — read it back with {!port} *)
  jobs : int;  (** worker domains handling connections *)
  limits : Limits.t;
  drain_deadline : float;
      (** seconds {!run} waits for in-flight requests after {!stop}
          before force-closing their sockets (default 5.) *)
  telemetry : Telemetry.t option;
      (** per-request profile ring / SLO windows / access log; share it
          with {!Api.routes} so the debug endpoints read what the
          server records (default [None]) *)
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

(** Requests answered so far (all connections). *)
val requests_served : t -> int

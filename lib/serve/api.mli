(** The JSON API of [shapmc serve]: a set of named (database, query)
    pairs loaded once at startup, Shapley answers amortized by the
    serving cache ({!Shapmc_cache.Cache}) — whole answers are
    content-keyed and shared across requests — and cursor-paginated
    fact enumeration.  An answer's facts are rendered
    as [/v1/shapley/all] page elements once, when it fills the cache; a
    warm page is those elements concatenated, and a warm
    [/v1/shapley] renders its one rational.

    Routes ({!routes}):
    - [GET /healthz] — liveness: status, {!version}, pid, uptime since
      the queries were loaded, loaded-query count
    - [GET /v1/queries] — every query with its Theorem 5.1 class
    - [GET /v1/facts?query=Q&cursor=&limit=] — endogenous facts, paged
    - [POST /v1/shapley] [{query, fact}] — one fact's exact Shapley value
    - [POST /v1/shapley/all] [{query, cursor?, limit?}] — all facts, paged
    - [POST /v1/shapley/approx]
      [{query, eps?, delta?, seed?, max_samples?, estimator?, ci?}] —
      sampled Shapley values for every fact with per-fact CI half-widths
      and the samples spent; the estimator early-stops at ε and its
      convergence checkpoints land in the request profile.  Uncached:
      each call is a fresh run (the sample budget is clamped to
      100 000)

    A failure answers {!Router.error_response}'s shape; with several bad
    body fields, the first in the order above names the error.  The
    daemon's operational routes ([/metrics], [/v1/debug/requests]) are
    {!Telemetry.routes}, which {!Server.create} adds. *)

type entry = {
  name : string;
  db : Database.t;
  query : Cq.t;
  facts : (int * string * Value.t array) array;
      (** endogenous facts as [(lineage var, relation, tuple)], sorted
          by ascending lineage variable — the pagination order *)
  key : string option Atomic.t;
      (** {!Db_fingerprint.result_key} of [db] and [query], set by the
          entry's first {!shapley_all} and passed to every later one:
          an entry's content is fixed at load *)
}

type t

(** [of_pairs [(name, (db, q)); ...]] builds a service state.  [cache]
    supplies a pre-sized (or shared) {!Shapmc_cache.Cache.t} instead of
    a default-capacity one.
    @raise Invalid_argument on duplicate names. *)
val of_pairs : ?cache:Cache.t -> (string * (Database.t * Cq.t)) list -> t

(** [load_files [(name, path); ...]] parses each file with
    {!Db_parser.parse_file}. *)
val load_files : ?cache:Cache.t -> (string * string) list -> t

val entries : t -> entry list

(** [find t name] — a hash lookup in an index built by {!of_pairs}. *)
val find : t -> string -> entry option

(** Amortized via {!Dichotomy.shapley_cached}: the first call per query
    content compiles the lineage, solves for every fact and renders each
    fact's page element (concurrent misses of one key single-flight —
    the leader solves, joiners park and share); later calls are cache
    hits and make zero oracle calls.  The entry's content key is
    computed on its first call and kept in [entry.key].
    @raise Invalid_argument if [entry] is not one of [t]'s. *)
val shapley_all : t -> entry -> Cache.answer * Dichotomy.solver

(** Version string reported by [/healthz]. *)
val version : string

(** [routes t] — the six Shapley-API routes listed above. *)
val routes : t -> Router.route list

(** {1 Cursors} — opaque tokens ordered lexicographically like the
    fact ids they encode. *)

val cursor_of_fact : int -> string
val fact_of_cursor : string -> int option

(** Page size bounds: [default_limit] when the request gives none,
    [max_limit] as the clamp. *)
val default_limit : int

val max_limit : int


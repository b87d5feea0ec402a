(** Oracle-call accounting and lightweight instrumentation.

    The paper measures every reduction in {e oracle calls}: Lemma 3.3
    consults the [#]-oracle on exactly [n + 1] OR-substituted instances,
    Lemma 3.2 layers [n + 1] zapped instances on top, and Lemma 9 bounds
    the size of each substituted circuit by [O(|G| + k·ℓ)].  This module
    makes those costs observable: exact per-oracle aggregates of every
    oracle invocation (name, universe size [n], substitution arity [ℓ],
    instance size, wall-clock time), per-kind aggregates of every
    OR/AND-substitution's pre/post sizes, and named counters and
    hierarchical spans for whatever else a caller wants to account for.

    The ledger is global and disabled by default; every recording entry
    point first checks {!observing}, so instrumented hot paths pay a
    single branch when observation is off.  Tests and the [--stats] CLI
    flag bracket work with {!enable}/{!reset} and read the aggregates
    back.

    {b The ledger is the registry.}  While enabled, each entry point
    writes {!Metrics.default} series and nothing else: per oracle
    [oracle_n{oracle}], [oracle_size{oracle}] and
    [oracle_seconds{oracle,lemma,l}]; per span [span_seconds{span}],
    [span_self_seconds{span}] and, when profiling,
    [span_alloc_bytes{span}]; per substitution kind
    [subst_pre_size{kind}], [subst_post_size{kind}] and the counter
    [subst_fresh_vars{kind}]; and the counter [ledger_counter{name}] for
    {!add}.  Histograms keep exact counts, sums, minima and maxima, so
    {!counter}, {!counters}, {!spans}, {!call_count}, {!aggregate},
    {!pp_report} and {!to_json} are read-only views, each reading one
    family at a time.  The same series back [--profile], [--metrics] and
    the bench percentile columns.

    {b One event pipeline.}  Each entry point builds its {!Trace} event
    once and delivers it to two buffers: the [--trace] stream installed
    with {!set_trace}, while the ledger is enabled; and the request
    buffer installed in this domain with {!with_request}, whatever the
    ledger's state.  A server running with the ledger off therefore
    still collects isolated per-request profiles and writes no series.
    The buffers are the only record of individual calls and
    substitutions.

    {b Domain safety} ([--jobs]): this module holds no lock; the
    registry's mutex keeps every aggregate exact under concurrent
    recordings from pool workers, and each buffer has its own.  The span
    {e nesting} stack and the installed request buffer are domain-local;
    {!context}/{!with_context} let a fan-out primitive carry both into
    worker domains, so hierarchical span paths match a sequential run
    and workers' events reach the caller's request.  The enabled flag
    and the [--trace] stream must only be changed outside parallel
    regions. *)

(** {1 Switch} *)

(** Is the ledger on? *)
val enabled : unit -> bool

val enable : unit -> unit
val disable : unit -> unit

(** [observing ()] is [true] when the ledger is on or a request buffer
    is installed in this domain — the one gate of every entry point.
    Call sites that compute metadata for an entry point (instance
    sizes, gate counts) check it first. *)
val observing : unit -> bool

(** Profiling mode ([--profile]): spans additionally sample per-domain
    [Gc] counters, recording a [span_alloc_bytes] histogram per span
    path in {!Metrics.default}.  Requires {!enabled}; toggle only
    outside parallel regions.  Off by default. *)
val set_profiling : bool -> unit

val profiling : unit -> bool

(** Bytes allocated by the calling domain so far (minor + major −
    promoted, from [Gc.allocated_bytes]); subtract two samples to
    bracket a region. *)
val allocated_bytes_now : unit -> float

(** [reset ()] resets the default {!Metrics} registry, and with it every
    counter, span and aggregate, and this domain's span stack (but not
    the enabled/profiling flags or the installed buffers). *)
val reset : unit -> unit

(** {1 Event buffers} *)

(** [set_trace (Some b)] makes [b] the [--trace] stream: while the
    ledger is enabled every event is delivered to it.  [set_trace None]
    stops recording. *)
val set_trace : Trace.t option -> unit

(** [with_request b f] runs [f ()] with [b] installed as this domain's
    request buffer, restoring the previous one afterwards (also on
    raise).  Nesting installs the inner buffer only. *)
val with_request : Trace.t -> (unit -> 'a) -> 'a

(** This domain's installed request buffer, if any. *)
val request : unit -> Trace.t option

(** What a fan-out carries into a worker: the open-span path stack and
    the request buffer. *)
type context

(** [context ()] captures this domain's context; call it before handing
    work to another domain. *)
val context : unit -> context

(** [with_context ctx f] runs [f ()] with the span stack set to [ctx]'s
    and its request buffer installed, restoring both afterwards (also on
    raise), so spans opened by workers nest under the caller's path and
    their events reach the caller's request. *)
val with_context : context -> (unit -> 'a) -> 'a

(** {1 Counters} *)

(** [add name k] bumps counter [name] by [k]; its event carries [k]. *)
val add : string -> int -> unit

val incr : string -> unit

(** [counter name] is the current value ([0] if never bumped). *)
val counter : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** {1 Hierarchical spans}

    A span is a named, wall-clock-timed region.  Nested spans accumulate
    under slash-separated paths
    ([pipeline.shap_via_count_oracle/linalg.vandermonde_solve]), so the
    report shows where time went {e within} each reduction stage. *)

type span_stat = {
  span_path : string;
  span_calls : int;
  span_seconds : float;  (** total wall-clock inside the span *)
  span_self_seconds : float;
      (** wall-clock minus time spent in child spans finished on the
          same domain (self = total under [jobs = 1]; children finished
          on other domains are not subtracted) *)
}

(** [with_span name f] runs [f ()] inside span [name]; when not
    {!observing} it is exactly [f ()].  Durations are clamped to [>= 0]
    (the wall clock is not monotonic).  [attrs] ride on the begin
    event. *)
val with_span :
  ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a

(** Aggregated spans, sorted by path. *)
val spans : unit -> span_stat list

(** {1 Oracle calls} *)

(** [record ~oracle ~n ?arity ?size ~seconds ()] records one call of
    [oracle] on an [n]-variable instance at substitution arity [arity]
    (Lemma 3.3/3.4's [ℓ]; [-1] when the instance is not substituted) of
    size [size] ([-1] when unknown).  Negative [seconds] are clamped to
    [0]. *)
val record :
  oracle:string -> n:int -> ?arity:int -> ?size:int -> seconds:float ->
  unit -> unit

(** [call ~oracle ~n ?arity ?size f] times [f ()] and records it; when
    not {!observing} it is exactly [f ()].  [attrs] (e.g. the lemma
    that issued the consultation) ride on the event. *)
val call :
  oracle:string -> n:int -> ?arity:int -> ?size:int ->
  ?attrs:(string * Trace.value) list -> (unit -> 'a) -> 'a

(** [call_count ()] is the total number of recorded calls;
    [call_count ~oracle ()] restricts to one oracle name. *)
val call_count : ?oracle:string -> unit -> int

(** Per-oracle aggregate: call count, [n]/[ℓ] ranges ([l] fields are
    [max_int]/[-1] when no call carried an arity), max instance size
    ([-1] when no call carried one), total seconds. *)
type agg = {
  a_calls : int;
  a_n_min : int;
  a_n_max : int;
  a_l_min : int;
  a_l_max : int;
  a_size_max : int;
  a_seconds : float;
}

(** Aggregates per oracle name, sorted. *)
val aggregate : unit -> (string * agg) list

(** {1 Substitutions (Lemma 9 witnesses)} *)

(** [record_subst ~kind ~pre ~post ~fresh ()] records one substitution
    of kind ["formula.or"], ["formula.and"] or ["circuit.or"]: instance
    sizes before and after, the fresh variables introduced (Σ widths,
    the [k·ℓ] of Lemma 9 for uniform width [ℓ]) and the maximum block
    width ([-1] when unknown). *)
val record_subst :
  ?width:int -> kind:string -> pre:int -> post:int -> fresh:int -> unit ->
  unit

(** {1 Phase markers}

    [phase name] drops an instant marker into the buffers (e.g.
    ["lemma3.2.drop"] before each zapped instance, or a convergence
    monitor's ["estimator.checkpoint"]), so the timeline can attribute
    oracle calls to pipeline phases. *)
val phase : ?attrs:(string * Trace.value) list -> string -> unit

(** {1 Reports} *)

(** Human-readable tables: oracle calls grouped by oracle, substitution
    sizes, counters, spans. *)
val pp_report : Format.formatter -> unit -> unit

val report : unit -> string

val json_float : float -> string
(** A float as a valid JSON token: [null] for NaN, [±1.0e308] for the
    infinities, [%.6f] (fixed, six decimals) otherwise. *)

(** The aggregates as a JSON object with fields ["counters"], ["spans"],
    ["oracle_calls"] (per oracle) and ["calls_total"], written through
    {!Tiny_json} (non-finite floats print as [null]). *)
val to_json : unit -> string

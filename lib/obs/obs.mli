(** Oracle-call accounting and lightweight instrumentation.

    The paper measures every reduction in {e oracle calls}: Lemma 3.3
    consults the [#]-oracle on exactly [n + 1] OR-substituted instances,
    Lemma 3.2 layers [n + 1] zapped instances on top, and Lemma 9 bounds
    the size of each substituted circuit by [O(|G| + k·ℓ)].  This module
    makes those costs observable: a global ledger records every oracle
    invocation (name, universe size [n], substitution arity [ℓ], instance
    size, wall-clock time), a substitution ledger records pre/post sizes
    of every OR/AND-substitution, and named counters and hierarchical
    spans capture whatever else a caller wants to account for.

    All state is global and disabled by default; every recording entry
    point first checks {!enabled}, so instrumented hot paths pay a single
    branch when observation is off.  Tests and the [--stats] CLI flag
    bracket work with {!enable}/{!reset} and read the ledgers back.

    The raw ledgers are bounded ({!ledger_cap}, default 65536 entries
    per ledger): past the cap, new entries are counted in
    {!dropped_calls}/{!dropped_substs} but not stored, while the
    aggregates ({!aggregate}, {!call_count}, the [--stats] tables)
    remain exact, so unbounded runs cannot grow memory without bound.

    When a {!Trace} stream is recording (see [--trace]), every entry
    point additionally emits a chronological trace event; tracing
    requires {!enabled} to be on.

    While enabled, recording entry points also feed the
    {!Metrics.default} registry: oracle latency histograms
    ([oracle_seconds{oracle,lemma,l}]), span self-time
    ([span_self_seconds{span}]), substitution sizes
    ([subst_post_size{kind}]) and counters, which back [--profile],
    [--metrics] and the bench percentile columns.

    {b Domain safety} ([--jobs]): all shared state (ledgers, aggregates,
    counters, span table) is mutex-guarded, so concurrent recordings
    from pool workers keep every aggregate exact.  The span {e nesting}
    stack is domain-local; {!span_context}/{!with_span_context} let a
    fan-out primitive propagate the caller's open-span path into worker
    domains so hierarchical span paths match a sequential run.  The
    enabled flag itself must only be toggled outside parallel regions. *)

(** {1 Switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

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

(** [reset ()] clears all counters, spans and ledgers, and resets the
    default {!Metrics} registry (but not the enabled/profiling flags or
    the ledger cap). *)
val reset : unit -> unit

(** {1 Ledger bounds} *)

val ledger_cap : unit -> int
val set_ledger_cap : int -> unit

(** Entries discarded from the respective raw ledger since the last
    {!reset} (aggregates stayed exact). *)
val dropped_calls : unit -> int

val dropped_substs : unit -> int

(** {1 Counters} *)

(** [add name k] bumps counter [name] by [k] (no-op when disabled). *)
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

(** [with_span name f] runs [f ()] inside span [name]; when disabled it
    is exactly [f ()].  Durations are clamped to [>= 0] (the wall clock
    is not monotonic).  [attrs] ride on the trace begin-event when a
    trace is recording. *)
val with_span :
  ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a

(** Aggregated spans, sorted by path. *)
val spans : unit -> span_stat list

(** [span_context ()] is this domain's stack of open span paths
    (innermost first).  Capture it before fanning work out to other
    domains and re-install it there with {!with_span_context}, so spans
    opened by workers nest under the caller's path. *)
val span_context : unit -> string list

(** [with_span_context ctx f] runs [f ()] with the span stack set to
    [ctx], restoring the previous stack afterwards (also on raise). *)
val with_span_context : string list -> (unit -> 'a) -> 'a

(** {1 Oracle-call ledger} *)

type call = {
  call_oracle : string;  (** oracle name, e.g. ["dpll"] *)
  call_n : int;  (** universe size of the consulted instance *)
  call_arity : int;  (** substitution arity [ℓ] of Lemma 3.3/3.4; [-1] when
                         the call is not on a substituted instance *)
  call_size : int;  (** instance size [|F|] or [|G|]; [-1] when unknown *)
  call_seconds : float;  (** wall-clock time spent inside the oracle *)
}

(** [record ~oracle ~n ?arity ?size ~seconds ()] appends to the ledger
    (no-op when disabled).  Negative [seconds] are clamped to [0]. *)
val record :
  oracle:string -> n:int -> ?arity:int -> ?size:int -> seconds:float ->
  unit -> unit

(** [call ~oracle ~n ?arity ?size f] times [f ()] and ledgers it; when
    disabled it is exactly [f ()].  [attrs] (e.g. the lemma that issued
    the consultation) ride on the trace event when a trace is
    recording. *)
val call :
  oracle:string -> n:int -> ?arity:int -> ?size:int ->
  ?attrs:(string * Trace.value) list -> (unit -> 'a) -> 'a

(** Ledgered calls in chronological order. *)
val calls : unit -> call list

(** [call_count ()] is the total number of recorded calls (exact even
    past the ledger cap); [call_count ~oracle ()] restricts to one
    oracle name. *)
val call_count : ?oracle:string -> unit -> int

(** Per-oracle aggregate, maintained incrementally and exact even when
    the raw ledger is capped: call count, [n]/[ℓ] ranges ([l] fields are
    [max_int]/[-1] when no call carried an arity), max instance size,
    total seconds. *)
type agg = {
  mutable a_calls : int;
  mutable a_n_min : int;
  mutable a_n_max : int;
  mutable a_l_min : int;
  mutable a_l_max : int;
  mutable a_size_max : int;
  mutable a_seconds : float;
}

(** Aggregates per oracle name, sorted; the records are copies. *)
val aggregate : unit -> (string * agg) list

(** {1 Substitution ledger (Lemma 9 witnesses)} *)

type subst_event = {
  subst_kind : string;  (** ["formula.or"], ["formula.and"] or ["circuit.or"] *)
  subst_pre : int;  (** instance size before substitution *)
  subst_post : int;  (** instance size after substitution *)
  subst_fresh : int;  (** total fresh variables introduced (Σ widths, the
                          [k·ℓ] of Lemma 9 for uniform width [ℓ]) *)
  subst_width : int;  (** maximum block width [ℓ]; [-1] when unknown *)
}

val record_subst :
  ?width:int -> kind:string -> pre:int -> post:int -> fresh:int -> unit ->
  unit

val substs : unit -> subst_event list

(** {1 Phase markers}

    [phase name] drops an instant marker into the trace stream (e.g.
    ["lemma3.2.drop"] before each zapped instance), so the timeline can
    attribute oracle calls to pipeline phases.  No-op unless both
    {!enabled} and a trace are recording. *)
val phase : ?attrs:(string * Trace.value) list -> string -> unit

(** {1 Reports} *)

(** Human-readable tables: oracle calls grouped by oracle, substitution
    sizes, counters, spans. *)
val pp_report : Format.formatter -> unit -> unit

val report : unit -> string

val json_float : float -> string
(** A float as a valid JSON token: [null] for NaN, [±1.0e308] for the
    infinities, [%.6f] (fixed, six decimals) otherwise. *)

(** The full current state as a JSON object with fields ["counters"],
    ["spans"], ["oracle_calls"] (aggregated per oracle),
    ["calls_total"], ["calls_dropped"], ["substs_dropped"], ["calls"]
    (the raw, possibly capped ledger) and ["substs"].  Non-finite
    floats are emitted as valid JSON ([null] / [±1.0e308]). *)
val to_json : unit -> string

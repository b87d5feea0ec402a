(** Metrics registry: counters, gauges and {!Histogram}s keyed by
    name + labels, with an OpenMetrics text export and percentile
    queries.

    A registry is a mutex-guarded table; every operation is domain-safe
    and O(1) amortized.  Workers that observe at high frequency should
    build a local {!Histogram} without locks and {!merge_histogram} it
    once at the end.

    Metric names use [snake_case] with a unit suffix ([_seconds],
    [_bytes]); labels are [(key, value)] pairs, canonicalized by
    sorting on key.  A name and its label sets form a {e family}, which
    {!fold} reads alone.  Well-known names produced by the
    instrumentation layer: the {!Obs} ledger's [oracle_n{oracle}],
    [oracle_size{oracle}], [oracle_seconds{oracle,lemma,l}],
    [span_seconds{span}], [span_self_seconds{span}],
    [span_alloc_bytes{span}], [subst_pre_size{kind}],
    [subst_post_size{kind}], [subst_fresh_vars{kind}] and
    [ledger_counter{name}]; and [pool_worker_busy_seconds{worker}],
    [pool_worker_idle_seconds{worker}], [pool_task_seconds],
    [pool_job_wait_seconds], [gc_allocated_bytes]. *)

type registry

type labels = (string * string) list

(** The process-wide registry used by [Obs] forwarding. *)
val default : registry

val create : unit -> registry

(** [inc name] adds [by] (default [1.]) to counter [name]/[labels],
    creating it at zero first.  Raises [Invalid_argument] if the key
    already holds a different metric kind. *)
val inc : ?registry:registry -> ?labels:labels -> ?by:float -> string -> unit

(** [set name v] sets gauge [name]/[labels] to [v]. *)
val set : ?registry:registry -> ?labels:labels -> string -> float -> unit

(** [observe name v] records [v] into histogram [name]/[labels]. *)
val observe : ?registry:registry -> ?labels:labels -> string -> float -> unit

(** [merge_histogram name h] merges a locally-built histogram into
    histogram [name]/[labels] under the registry lock (one lock
    acquisition for the whole batch). *)
val merge_histogram :
  ?registry:registry -> ?labels:labels -> string -> Histogram.t -> unit

(** Drop every metric. *)
val reset : ?registry:registry -> unit -> unit

type value = Counter of float | Gauge of float | Hist of Histogram.t

(** Snapshot of the registry, sorted by (name, labels).  Histograms are
    copied, so the snapshot is stable. *)
val dump : ?registry:registry -> unit -> (string * labels * value) list

(** [fold name f init] folds [f labels v] over the series of metric
    [name] alone, in no particular order, without copying: a [Hist] is
    the live histogram, valid only inside [f].  [f] runs under the
    registry lock and must not call back into the registry. *)
val fold :
  ?registry:registry -> string -> (labels -> value -> 'a -> 'a) -> 'a -> 'a

(** All histogram series under [name], as [(labels, copy)] pairs sorted
    by labels. *)
val find_histograms :
  ?registry:registry -> string -> (labels * Histogram.t) list

(** Sum of counter [name] across all label sets (0. when absent). *)
val counter_total : ?registry:registry -> string -> float

(** Value of gauge [name]/[labels], if present. *)
val gauge_value : ?registry:registry -> ?labels:labels -> string -> float option

type summary = {
  s_count : int;
  s_sum : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

val summary_of : Histogram.t -> summary

(** OpenMetrics / Prometheus text exposition.  Metric names are
    prefixed with [shapmc_] and sanitized; counters gain the [_total]
    suffix; histograms emit sparse cumulative [_bucket{le=...}] series
    plus [_sum] / [_count]; the output ends with [# EOF]. *)
val to_openmetrics : ?registry:registry -> unit -> string

type om_sample = {
  om_name : string;
  om_labels : labels;
  om_value : float;
}

(** Minimal parser for the exposition format emitted by
    {!to_openmetrics} (round-trip testing, scrape debugging).  Ignores
    comment lines; raises [Failure] on malformed sample lines. *)
val parse_openmetrics : string -> om_sample list

(** The oracle latency table: a header, one row per
    [oracle_seconds{oracle,lemma,l}] histogram (calls, p50/p90/p99/max
    in ms) and a TOTAL row merging them all; [""] when there is no such
    series.  {!profile_report}'s "Oracle latency" section, and the rows
    [trace-report --percentiles] prints from a registry it replays a
    stream's oracle events into. *)
val oracle_latency : ?registry:registry -> unit -> string

(** Human-readable profiling report rendered from the registry's
    well-known series: per-phase self time, oracle latency percentiles
    by lemma/arity ({!oracle_latency}), substitution sizes, Gc gauges,
    pool utilization.  Sections with no data are omitted. *)
val profile_report : ?registry:registry -> unit -> string

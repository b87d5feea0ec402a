(** Estimator convergence telemetry.

    A stochastic estimator you cannot watch converge is one you cannot
    trust in production.  A [Convergence.t] is a monitor owned by one
    estimator run: it keeps a streaming Welford mean/variance per player
    (exact single-pass moments, mergeable batch-wise for parallel
    estimators), derives a confidence-interval half-width per player
    under a selectable inequality, and every [interval] samples emits a
    {e checkpoint} — (samples, certified max half-width, per-player
    variance) — into every observability sink at once.  The monitor
    stores no checkpoints, only their count ({!emitted}); a checkpoint
    is what it emits:

    - {!Obs.phase} (a [Phase] event named ["estimator.checkpoint"] whose
      attributes are [estimator], [ci], [samples], [checkpoint] (its
      0-based index), [max_half_width], [mean_half_width] and
      [max_variance]), so [--trace] timelines and [shapmc trace-report]
      show the convergence curve, per-request profiles served at
      [/v1/debug/requests/:id] carry the checkpoints of the estimators
      that ran for that request, and a caller that wants the curve in
      process installs a {!Trace} buffer ({!Obs.with_request});
    - the default {!Metrics} registry: [estimator_samples] /
      [estimator_checkpoints] counters and the [estimator_ci_half_width]
      gauge, all labelled [{estimator=<name>}] ([estimator_seconds] is
      observed once by {!finish});
    - an optional JSONL convergence log (one object per checkpoint,
      deliberately free of wall-clock stamps so a replayed run diffs
      bit-identically).

    The {e certified} half-width is the running minimum over checkpoints
    of the instant per-player half-width (the monotone envelope): under
    Hoeffding the instant width is monotone anyway; under the
    variance-adaptive CLT/Bernstein intervals the envelope guarantees
    the logged series never widens, which is what early-stopping
    consumers ({!Sampling.shap_estimate}) compare against a target ε.

    Sinks are written under the monitor's mutex; all entry points are
    domain-safe, though the intended shape is a single coordinator
    merging worker batches ({!merge_moments}) in a deterministic order
    so that parallel runs replay bit-identically. *)

(** Which confidence interval backs the half-widths. *)
type ci =
  | Hoeffding
      (** distribution-free: [range·√(ln(2/δ)/2m)] — monotone in [m],
          ignores observed variance *)
  | Clt
      (** normal approximation: [z_{1−δ/2}·√(V/m)] — tightest, not a
          finite-sample guarantee *)
  | Bernstein
      (** empirical Bernstein (Maurer–Pontil):
          [√(2V·ln(3/δ)/m) + 3·range·ln(3/δ)/m] — finite-sample valid
          and variance-adaptive, the early-stopping default *)

val ci_of_string : string -> ci option
(** ["hoeffding"], ["clt"], ["bernstein"]. *)

val ci_name : ci -> string

type t

val default_interval : int
(** 512 samples. *)

(** [create ~estimator ~players ()] — [estimator] is the metrics label
    and JSONL tag; [players] the number of tracked means.  [delta] is
    the per-player failure probability (default 0.05), [range] the width
    of the observations' support (default 2: Shapley marginals live in
    [[-1, 1]]), [interval] the checkpoint period in samples, [jsonl] an
    optional sink channel the caller owns (the monitor writes and
    flushes, never closes).
    @raise Invalid_argument on non-positive [players], [interval] or
    [range], or [delta] outside (0, 1). *)
val create :
  ?ci:ci ->
  ?delta:float ->
  ?range:float ->
  ?interval:int ->
  ?jsonl:out_channel ->
  estimator:string ->
  players:int ->
  unit ->
  t

val estimator : t -> string
val players : t -> int
val ci : t -> ci
val delta : t -> float

(** {1 Feeding} *)

(** [observe t ~player x] streams one observation into [player]'s
    Welford state.  Does not advance the sample counter — call
    {!advance} once per completed sample (a sample may cover several
    players). *)
val observe : t -> player:int -> float -> unit

(** [merge_moments t ~player ~count ~mean ~m2] merges a worker batch's
    exact moments ([m2] = sum of squared deviations) via Chan's parallel
    Welford update.  Merging batches in a fixed order is deterministic,
    which is how parallel estimators stay bit-identical across [--jobs]. *)
val merge_moments :
  t -> player:int -> count:int -> mean:float -> m2:float -> unit

(** [advance t k] counts [k] completed samples and emits one checkpoint
    when the counter crosses a multiple of [interval] (at most one per
    call — back-to-back crossings coalesce). *)
val advance : t -> int -> unit

(** [checkpoint t] forces a checkpoint now (estimators call it once at
    the end so the final state is always logged). *)
val checkpoint : t -> unit

(** [finish t] emits a final checkpoint if any sample arrived since the
    last one, observes [estimator_seconds{estimator}] and flushes the
    JSONL sink.  Idempotent. *)
val finish : t -> unit

(** {1 Read-back} *)

val samples : t -> int

(** Per-player point estimate (the Welford mean; [0.] before any
    observation). *)
val mean : t -> player:int -> float

(** Per-player sample variance ([m2/(count−1)]; [0.] below 2
    observations). *)
val variance : t -> player:int -> float

(** Instant half-width of [player]'s CI at the current count
    ([infinity] before any observation). *)
val half_width : t -> player:int -> float

(** Certified half-width: the envelope value as of the last checkpoint
    ([infinity] before the first). *)
val certified_half_width : t -> player:int -> float

(** Max over players of {!certified_half_width} — the early-stopping
    criterion. *)
val max_certified_half_width : t -> float

(** Checkpoints emitted. *)
val emitted : t -> int

(** {1 Inspection helpers} *)

(** [hw_of ~ci ~delta ~range ~count ~variance] is the instant half-width
    formula behind {!half_width} — exposed for tests and for consumers
    that need a bound before running (e.g. planning a sample budget). *)
val hw_of :
  ci:ci -> delta:float -> range:float -> count:int -> variance:float -> float

(** [z_quantile p] is the standard normal quantile Φ⁻¹(p) (Acklam's
    rational approximation, |rel. err| < 1.2e-8), used by the {!Clt}
    interval. @raise Invalid_argument outside (0, 1). *)
val z_quantile : float -> float

(** Monte-Carlo approximation of Shapley values — an observable
    estimator suite.

    The paper notes (contrasting with the SHAP score, which admits no
    FPRAS even for positive bipartite DNF [3]) that the Shapley value in
    the database setting has an FPRAS [21].  The workhorse is permutation
    sampling: draw random permutations, average each variable's marginal
    contribution.  Each marginal lies in [[-1, 1]], so Hoeffding's
    inequality gives a two-sided additive guarantee
    [P(|estimate − Shap| > ε) ≤ δ] with [m ≥ 2 ln(2/δ) / ε²] samples per
    variable (all variables are estimated from the same permutations).

    {!shap_estimate} streams every marginal through a
    {!Convergence} monitor (Welford moments, selectable CI, checkpoint
    telemetry into Obs/Metrics/JSONL), stops early once the
    certified max half-width reaches a target ε or a wall-clock deadline
    passes, and fans batches over the {!Par} domain pool with
    deterministic per-batch seed substreams — the same [(seed, estimator,
    batch index)] triple seeds batch [b] no matter how many domains run,
    and batch moments are merged in batch order, so runs at [--jobs 1]
    and [--jobs 4] are bit-identical (deadline stops excepted: a clock is
    inherently not replayable).

    Estimates are floats — approximation is the one place in this library
    where exactness is deliberately abandoned. *)

type estimate = {
  variable : int;
  value : float;  (** the point estimate *)
  half_width : float;  (** CI half-width at the requested [delta] *)
}

(** [samples_for ~eps ~delta] is the Hoeffding sample bound
    [⌈2 ln(2/δ) / ε²⌉] for additive error [eps] with failure probability
    [delta].
    @raise Invalid_argument if the bound does not fit an OCaml [int]
    (above 10¹⁵ permutations nobody is sampling anyway — tighten ε/δ). *)
val samples_for : eps:float -> delta:float -> int

(** {1 Estimator suite} *)

type estimator =
  | Truncated
      (** permutation walk, one marginal per player, with a monotone
          prefix cutoff: on positive formulas, once the growing prefix
          satisfies [f] every later marginal is 0, so the remaining
          oracle evaluations are skipped.  The cutoff draws no
          randomness, so it changes no estimate, only the evaluation
          count; on non-positive formulas it never applies. *)
  | Antithetic
      (** evaluates each permutation and its reversal, feeding the pair
          mean as one observation — negatively correlated pairs cut
          variance for near-symmetric games *)

val estimator_of_string : string -> estimator option
(** ["truncated"], ["antithetic"]. *)

val estimator_name : estimator -> string

(** Progress snapshot handed to the [progress] callback at every round
    boundary (coordinator thread). *)
type progress = {
  pr_samples : int;  (** permutations walked so far *)
  pr_half_width : float;  (** certified max half-width ([infinity] until
                              the first checkpoint) *)
  pr_elapsed : float;  (** seconds since the run started *)
}

type report = {
  estimates : estimate list;  (** sorted by variable, half-widths are the
                                  certified (envelope) values *)
  samples_used : int;  (** permutations walked *)
  evals : int;
      (** prefix evaluations: one per walked prefix, the empty one
          included (truncation skips the rest of a walk) *)
  converged : bool;  (** stopped because certified max half-width ≤ ε *)
  wall : float;  (** wall-clock seconds *)
  monitor : Convergence.t;
      (** the finished monitor; its checkpoints, the convergence curve,
          were emitted as ["estimator.checkpoint"] events (install a
          {!Trace} buffer with {!Obs.with_request} to keep them) *)
}

(** [shap_estimate ~vars f] runs the estimator until one of: the
    certified max CI half-width reaches [eps] (when given), [deadline]
    seconds elapse (when given), or [max_samples] permutations have been
    walked (default: {!samples_for}[ ~eps ~delta] when [eps] is given,
    else 10000).

    [estimator] defaults to {!Truncated}; [ci] to
    {!Convergence.Bernstein} (variance-adaptive, so low-variance
    instances stop well before the Hoeffding budget); [delta] to 0.05;
    [interval] is the checkpoint period in samples (default
    {!Convergence.default_interval}).  [jsonl] receives one convergence
    line per checkpoint.  Every batch is ledgered as an
    [estimator.<name>] oracle call, so [--stats]/bench aggregates count
    batches and per-batch sample totals.

    [vars] is the set of players: a repeated variable is one player,
    with one estimate.  [f] is compiled once into a {!Walker}, so a walk
    step costs the gates it changes, not a re-evaluation of [f].

    @raise Invalid_argument if [vars] misses variables of [f], is empty,
    or a numeric argument is out of range. *)
val shap_estimate :
  ?estimator:estimator ->
  ?seed:int ->
  ?delta:float ->
  ?eps:float ->
  ?max_samples:int ->
  ?deadline:float ->
  ?ci:Convergence.ci ->
  ?interval:int ->
  ?jsonl:out_channel ->
  ?progress:(progress -> unit) ->
  vars:int list ->
  Formula.t ->
  report

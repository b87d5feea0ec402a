(** Karp–Luby–Madras approximate model counting for DNF [20].

    The paper contrasts its exact equivalence with the approximation
    landscape: model counting of DNF admits an FPRAS (Karp–Luby), and so
    does the Shapley value over query lineage, while the SHAP score does
    not (unless NP ⊆ BPP).  This is the classical coverage algorithm for
    positive DNF: with [U = Σ_i 2^{n − |c_i|}] the total clause coverage,
    sample a clause [i] with probability proportional to its coverage and
    a uniform model of [c_i]; the indicator that [c_i] is the {e first}
    clause the sampled model satisfies has expectation [#F / U].  The
    estimator is unbiased with variance ≤ m·#F·U per sample block, giving
    an (ε, δ) guarantee with O(m·ln(1/δ)/ε²) samples. *)

type estimate = {
  value : float;  (** estimated [#F] *)
  samples : int;
  relative_half_width : float;
      (** requested ε of the (ε, δ) guarantee the sample count was sized
          for *)
}

(** [count ~seed ~eps ~delta ~vars d] estimates the number of models of
    the positive DNF [d] over the universe [vars] within relative error
    [eps] with probability [1 − delta].

    When [monitor] is given (create it with [~players:1 ~range:1.0] —
    the observable is the first-satisfied-clause coverage indicator in
    {0, 1} whose mean is [#F / U]), every sample streams into it and the
    convergence checkpoints flow to Obs/Metrics/JSONL exactly as
    for the Shapley estimators; the caller owns the monitor and calls
    {!Convergence.finish}.
    @raise Invalid_argument if [d] is empty or has an empty clause, if
    [vars] misses clause variables, or on nonsensical [eps]/[delta]. *)
val count :
  ?monitor:Convergence.t ->
  ?seed:int -> eps:float -> delta:float -> vars:int list -> Nf.pdnf -> estimate

(** [count_samples ~seed ~samples ~vars d] runs a fixed number of
    samples (for convergence studies); [monitor] as in {!count}. *)
val count_samples :
  ?monitor:Convergence.t ->
  ?seed:int -> samples:int -> vars:int list -> Nf.pdnf -> estimate

(** [sample_bound ~clauses ~eps ~delta] is the standard
    [⌈3·m·ln(2/δ)/ε²⌉] sample count. *)
val sample_bound : clauses:int -> eps:float -> delta:float -> int

(** Probability computation and SHAP scores on d-D circuits.

    This module makes the paper's "related work" axis executable.

    {b Probabilistic evaluation.}  Under a product distribution (variable
    [v] true with probability [p_v] independently), the probability of a
    deterministic & decomposable circuit is computed gate-by-gate in one
    pass — the classical tractability of PQE on compiled lineage [33, 27]
    that the paper's introduction connects to.

    {b SHAP scores.}  The SHAP score (Lundberg–Lee; Van den Broeck et al.
    [11, 12]; Arenas et al. [1, 3]) is the Shapley value of the wealth
    function [S ↦ E[F | X_S = e_S]] for an entity [e] and a product
    distribution.  On d-D circuits all SHAP scores are computable in
    polynomial time [1].  {!shap_score} gets them all from one
    {!Count.differences} pass: under the weight that puts [p_v + e_v·t]
    on a true leaf [v], coefficient [k] of a root vector sums the
    conditional expectations over the size-[k] conditioning sets, and a
    variable's difference vector is Eq. (2)'s input up to the factor
    [e_x − p_x].  SHAP has no gate rules of its own.

    {b Relation to the paper's Shapley value.}  The paper stresses that
    its Shapley-of-variables is {e not} the SHAP score with probabilities
    1/2.  It is, however, the SHAP score at the all-ones entity under the
    all-zero distribution — conditioning on [X_S = 1_S] with every
    unconditioned variable false is evaluation at the set [S].  The tests
    pin both facts. *)

(** [probability ~weights g] is [Pr(G = 1)] when each variable [v] is true
    independently with probability [weights v].  Free variables outside
    the circuit do not affect the result. *)
val probability : weights:(int -> Rat.t) -> Circuit.node -> Rat.t

(** [uniform_half] maps every variable to probability 1/2 (so
    [probability ~weights:uniform_half g = #G / 2^n] over [vars g]). *)
val uniform_half : int -> Rat.t

(** [shap_score ~weights ~entity ~vars g] is the SHAP score of every
    universe variable for the classifier [g] at entity [entity] under the
    product distribution [weights].  The weights are scaled by [q], the
    common denominator of the circuit variables' [weights], so the pass
    runs on integers: leaf [v] weighs [q·p_v + q·e_v·t], one free
    variable [q(1 + t)], and each score is
    [(e_x − p_x) · Σ_k c_k D_x[k] / q^{n−1}].
    @raise Invalid_argument if [vars] misses circuit variables or lists
    one twice. *)
val shap_score :
  weights:(int -> Rat.t) ->
  entity:(int -> bool) ->
  vars:int list ->
  Circuit.node ->
  (int * Rat.t) list

(** Probabilistic query evaluation over tuple-independent databases.

    The companion problem the paper's introduction starts from: each
    endogenous tuple is present independently with a given probability,
    and PQE asks for the probability that the Boolean query is true.
    For hierarchical self-join-free CQs the safe-plan lineage circuit
    gives PQE in polynomial time (Dalvi–Suciu safe queries [6, 33]); in
    general we compile the lineage.

    {!shapley_via_pqe} is the prior-work reduction [13] executed at the
    database level: all tuple Shapley values from PQE calls alone — the
    baseline against which the paper's model-counting route is compared
    in experiment E14. *)

(** [probability db q ~weights] is [P(Q)] when each endogenous tuple [t]
    (with lineage variable [v]) is present independently with probability
    [weights v], on the circuit of the one Theorem 5.1 dispatch,
    {!Dichotomy.circuit}: the safe plan when the query is hierarchical
    and self-join-free, otherwise the compiled lineage. *)
val probability :
  Database.t -> Cq.t -> weights:(int -> Rat.t) -> Rat.t

(** [shapley_via_pqe db q] computes every tuple's Shapley value using
    only PQE evaluations (at [n+1] distinct uniform probabilities, per
    restricted database), following Deutch et al. [13]. *)
val shapley_via_pqe : Database.t -> Cq.t -> (int * Rat.t) list

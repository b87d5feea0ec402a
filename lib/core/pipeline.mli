(** End-to-end instantiations of Theorem 3.1 over formula classes.

    These functions assemble the reductions of {!Reductions} with concrete
    OR-substitutions on formulas ({!Shapmc_boolean.Subst}) and a pluggable
    model-counting backend.  They are the executable content of
    Corollary 7: give them a counting oracle for a class closed under
    OR-substitution and they return Shapley values — or, in the other
    direction, give them a Shapley oracle and they count models. *)

(** A plain model-counting oracle: [#F] over an explicit universe. *)
type count_oracle = {
  oracle_name : string;
  count : vars:int list -> Formula.t -> Bigint.t;
}

(** A Shapley oracle: all Shapley values over an explicit universe,
    returned per variable. *)
type shap_oracle = {
  shap_name : string;
  shap : vars:int list -> Formula.t -> (int * Rat.t) list;
}

val brute_count_oracle : count_oracle
val dpll_count_oracle : count_oracle

(** [shap_oracle_of_subsets] wraps the exponential Eq. (2) reference. *)
val shap_oracle_of_subsets : shap_oracle

(** {1 Shap ≤P #} *)

(** [kcounts_via_count_oracle ~oracle ~vars f] computes [#_{0..n} F] by
    Lemma 3.3: builds [F^(l)] for [l = 1..n+1] by OR-substitution and
    calls the oracle on each. *)
val kcounts_via_count_oracle :
  oracle:count_oracle -> vars:int list -> Formula.t -> Kvec.t

(** [shap_via_count_oracle ~oracle ~vars f] computes all Shapley values by
    chaining Lemma 3.2 over Lemma 3.3 — the paper's
    [Shap(C) ≤P #_* ~C ≤P # ~~C] route.  The [#_*]-oracle calls of
    Lemma 3.2 are served on the isomorphic copy [~F] and the zapped
    functions [~F'] (empty disjunction at [X_i]), exactly as in the
    proof. *)
val shap_via_count_oracle :
  oracle:count_oracle -> vars:int list -> Formula.t -> (int * Rat.t) list

(** {1 # ≤P Shap} *)

(** [count_via_shap_oracle ~oracle ~vars f] computes [#F] by Lemma 3.4:
    builds [F^(l,i)] for every variable [i] and [l = 1..n] and reads off
    [Shap(F^(l,i), Z_i)] from the oracle. *)
val count_via_shap_oracle :
  oracle:shap_oracle -> vars:int list -> Formula.t -> Bigint.t

(** [kcounts_via_shap_oracle ~oracle ~vars f] returns the full stratified
    vector recovered along the way. *)
val kcounts_via_shap_oracle :
  oracle:shap_oracle -> vars:int list -> Formula.t -> Kvec.t

(** {1 The prior-work PQE route}

    Deutch et al. [13] reduce Shapley computation to probabilistic query
    evaluation; the paper's open problem asked for the converse and
    settled it via model counting instead.  Both directions of the
    {e forward} reduction are implemented here so experiment E14 can
    compare them: same Lemma 3.2 core, but fixed-size counts come from
    probability evaluations at [n+1] distinct tuple probabilities
    ({!Reductions.kcounts_via_probability}) rather than from counting
    OR-substituted functions. *)

(** A probabilistic-evaluation oracle: [P_θ(F)] under the uniform-[θ]
    product distribution over the given universe. *)
type pqe_oracle = {
  pqe_name : string;
  prob : theta:Rat.t -> vars:int list -> Formula.t -> Rat.t;
}

(** Exact PQE by compiling the function to a d-D circuit. *)
val pqe_circuit_oracle : pqe_oracle

(** [kcounts_via_pqe_oracle ~oracle ~vars f] recovers [#_{0..n} F] from
    [n+1] probability evaluations. *)
val kcounts_via_pqe_oracle :
  oracle:pqe_oracle -> vars:int list -> Formula.t -> Kvec.t

(** [shap_via_pqe_oracle ~oracle ~vars f] is the full [Shap ≤P PQE]
    reduction of prior work. *)
val shap_via_pqe_oracle :
  oracle:pqe_oracle -> vars:int list -> Formula.t -> (int * Rat.t) list

(** {1 Round trip} *)

(** [roundtrip_count ~vars f] computes [#F] by composing Lemma 3.4 with a
    Shapley oracle that is itself implemented via Lemmas 3.2+3.3 over a
    DPLL counting backend — model counting via Shapley values via model
    counting (experiment E6).  Equals [#F] on every input. *)
val roundtrip_count : vars:int list -> Formula.t -> Bigint.t

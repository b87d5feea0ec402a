(** Theorem 3.1 and Corollary 7, once for every class closed under
    OR-substitution.

    The proofs of Lemmas 3.2–3.4 ask three things of a class, recorded
    in {!or_closed}; the chain below runs the reductions of
    {!Reductions} over any such record with the caller's oracle.  Three
    classes plug in: formulas (the [*_oracle] functions), d-D circuits
    ([Circuit_shapley], by Lemma 9) and [Q0] lineages ([Hardness], by
    Claim 5.2).  Only the formula instance records its oracle calls in
    the {!Shapmc_obs.Obs} ledger. *)

(** What the chain needs from a class of functions represented by
    ['x]. *)
type 'x or_closed = {
  or_subst : universe:Vset.t -> widths:(int -> int) -> 'x -> 'x * Subst.blocks;
      (** Definition 1: [v] becomes a disjunction of [widths v] fresh
          variables (width 0: false) *)
  vars : 'x -> Vset.t;  (** the variables of the function *)
  at_zero : 'x -> bool;  (** its value on the all-zero valuation *)
}

(** {1 The chain}

    Each function takes the player universe [vars] of [x] and calls the
    oracle with the arity [l] of the instance and that instance's
    universe of fresh variables.
    @raise Invalid_argument if [vars] lists a variable twice
    (["Pipeline: duplicate variables in the universe"]) or misses one
    of [x]. *)

(** [kcounts_via_count cls ~count ~vars x] is [#_{0..n} x] by Lemma 3.3,
    counting [x^(l)] (every width [l]) for [l = 1..n+1]. *)
val kcounts_via_count :
  'x or_closed -> count:(l:int -> vars:int list -> 'x -> Bigint.t) ->
  vars:int list -> 'x -> Kvec.t

(** [shap_via_count cls ~count ~vars x] is every Shapley value of [x] by
    Lemma 3.2 over Lemma 3.3 ([Shap(C) ≤P #_* ~C ≤P # ~~C]): the
    [#_*]-oracle is served on the copy [~x] (every width 1) and on the
    zapped [~x'] (width 0 at [X_i]), as in the proof; [(n+1) + n²]
    counts. *)
val shap_via_count :
  'x or_closed -> count:(l:int -> vars:int list -> 'x -> Bigint.t) ->
  vars:int list -> 'x -> (int * Rat.t) list

(** [kcounts_via_shap cls ~shap ~vars x] is [#_{0..n} x] by Lemma 3.4,
    reading [Shap(x^(l,i), Z_i)] off [n²] oracle calls, where [x^(l,i)]
    gives [X_i] the one fresh variable [Z_i] and every other variable
    [l]. *)
val kcounts_via_shap :
  'x or_closed -> shap:(l:int -> vars:int list -> 'x -> (int * Rat.t) list) ->
  vars:int list -> 'x -> Kvec.t

(** {1 Formulas}

    The chain on formulas (OR-substitution by
    {!Shapmc_boolean.Subst.or_subst}) with a named oracle, each call
    recorded in the {!Shapmc_obs.Obs} ledger with its arity and lemma. *)

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

(** {!kcounts_via_count} on a formula. *)
val kcounts_via_count_oracle :
  oracle:count_oracle -> vars:int list -> Formula.t -> Kvec.t

(** {!shap_via_count} on a formula. *)
val shap_via_count_oracle :
  oracle:count_oracle -> vars:int list -> Formula.t -> (int * Rat.t) list

(** [#F] by {!kcounts_via_shap}. *)
val count_via_shap_oracle :
  oracle:shap_oracle -> vars:int list -> Formula.t -> Bigint.t

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

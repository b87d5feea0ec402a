(** The three polynomial-time reductions of Theorem 3.1, in oracle form.

    Each reduction is written against the minimal oracle interface its proof
    uses; {!Pipeline}'s chain builds the OR-substituted instances and asks
    the oracle, once for every class (formulas, d-D circuits and query
    lineage — the three instantiations the paper discusses).  The oracle
    arguments correspond to membership of the OR-substituted functions
    in [~C]:

    - Lemma 3.2 calls the [#_*]-oracle on [~F] (an isomorphic copy of [F])
      and on [~F'] ([F] with [X_i] replaced by the empty disjunction);
    - Lemma 3.3 calls the [#]-oracle on [F^(l)] for [l = 1..n+1] and solves
      a Vandermonde system at the nodes [2^l − 1] (Claim 3.5);
    - Lemma 3.4 calls the [Shap]-oracle on [F^(l,i)] for every variable [i]
      and [l = 1..n], solves one linear system per variable, and telescopes
      with Claim 3.6 starting from [#_0 F = F(0)].

    {b Proof repair.}  The paper's proof of Lemma 3.4 states
    [Shap(F^(l,i), Z_i) = Σ_k (2^l−1)^k c_k (#_k F[X_i:=1] − #_k F[X_i:=0])],
    but the coefficients [c_k] there belong to the original [n]-variable
    function while [F^(l,i)] has [(n−1)l + 1] variables; the identity fails
    numerically for every [l ≥ 2] (e.g. [F = X_1 ∧ X_2], [l = 2]: true
    value [2/3], displayed formula [3/2]).  The correct weight of the
    difference [#_j F[X_i:=1] − #_j F[X_i:=0]] is {!lemma34_weight}
    ([j!·l^j / Π_{a=n−1−j}^{n−1}(a·l+1)], which degenerates to [c_j] at
    [l = 1]); the system over [l = 1..n] remains nonsingular, so the lemma
    — and with it Theorem 3.1 — holds with the identical oracle-call
    structure.  The test suite verifies the repaired identity and the
    failure of the displayed one. *)

(** {1 Lemma 3.2: Shapley values from fixed-size counts} *)

(** [shap_via_kcounts ~n ~kcount_full ~kcount_drop] computes the Shapley
    value of variable [X_i] for every [i] in [0..n-1] position order.

    [kcount_full] must be the vector [#_{0..n} F] over the full universe;
    [kcount_drop pos] must be [#_{0..n-1} (F[X_i := 0])] over the universe
    {e without} [X_i], where [X_i] is the variable at position [pos].
    Returns the Shapley values by position.  Uses the rearranged Eq. (2)
    from the proof:
    [Shap(F,X_i) = Σ_k c_k (#_{k+1}F − #_{k+1}F[X_i:=0] − #_k F[X_i:=0])]. *)
val shap_via_kcounts :
  n:int -> kcount_full:Kvec.t -> kcount_drop:(int -> Kvec.t) -> Rat.t array

(** {1 Lemma 3.3: fixed-size counts from plain counts} *)

(** [kcounts_via_counting ~n ~count_subst] computes [#_{0..n} F] given
    [count_subst ~l = #F^(l)] (the model count of the width-[l]
    OR-substituted function over its own [n·l]-variable universe).
    Calls the oracle for [l = 1..n+1]. *)
val kcounts_via_counting :
  n:int -> count_subst:(l:int -> Bigint.t) -> Kvec.t

(** [kcounts_via_counting_and ~n ~count_subst] is the AND-substitution
    variant (Claim 3.7): the weight of [#_k F] in [#F^(l)] is
    [(2^l − 1)^(n−k)]. *)
val kcounts_via_counting_and :
  n:int -> count_subst:(l:int -> Bigint.t) -> Kvec.t

(** {1 Prior work: fixed-size counts from probabilistic evaluation}

    The reduction of Deutch et al. [13] connects Shapley values to
    probabilistic query evaluation instead of model counting: with every
    variable true independently with probability [θ],
    [P_θ(F) = Σ_k #_k F · θ^k (1−θ)^{n−k}], so [n+1] probability
    evaluations at distinct [θ] recover [#_{0..n} F] by interpolation in
    the odds [θ/(1−θ)].  Implemented as the historical baseline that the
    paper's OR-substitution route (Lemma 3.3) replaces — the paper's
    point being that its route needs only an {e unweighted} counting
    oracle. *)

(** [kcounts_via_probability ~n ~prob] computes [#_{0..n} F] given
    [prob ~theta = P_θ(F)] (probability under the uniform-[θ] product
    distribution over the [n]-variable universe). *)
val kcounts_via_probability :
  n:int -> prob:(theta:Rat.t -> Rat.t) -> Kvec.t

(** {1 Lemma 3.4: plain counts from Shapley values} *)

(** [kcounts_via_shap ~n ~f_zero ~shap_subst] computes [#_{0..n} F]
    (whose total is [#F]) given [f_zero = F(0)] (the value of [F] on the
    all-zero valuation) and [shap_subst ~l ~pos = Shap(F^(l,i), Z_i)]
    where [X_i] is the variable at position [pos] and [Z_i] its
    singleton replacement.  Calls the oracle [n^2] times. *)
val kcounts_via_shap :
  n:int -> f_zero:bool -> shap_subst:(l:int -> pos:int -> Rat.t) -> Kvec.t

(** {1 Shared helpers} *)

(** [or_points ~count] is the vector of interpolation nodes
    [(2^1−1, ..., 2^count−1)] as rationals. *)
val or_points : count:int -> Rat.t array

(** [lemma34_weight ~n ~l ~j] is the (repaired) weight of
    [#_j F[X_i:=1] − #_j F[X_i:=0]] in [Shap(F^(l,i), Z_i)]:
    [j! · l^j / Π_{a=n−1−j}^{n−1} (a·l + 1)].
    @raise Invalid_argument unless [0 <= j <= n−1] and [l >= 1]. *)
val lemma34_weight : n:int -> l:int -> j:int -> Rat.t

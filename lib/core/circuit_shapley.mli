(** Shapley values on deterministic & decomposable circuits — Theorem 4.1.

    Two polynomial algorithms are provided:

    - {!shap_direct} applies Eq. (2) to the difference vectors
      [#_k G[X_i:=1] − #_k G[X_i:=0]] of all [n] variables, which
      {!Shapmc_circuits.Count.differences} gets from one forward and one
      backward pass over the circuit: [O(|G| · n^2)] bigint operations
      in all, then one [n]-term integer dot product and one
      normalisation by [n!] per distinct difference vector (symmetric
      players share one) — the practical algorithm.
    - {!shap_via_reduction} is the paper's constructive proof made
      executable: the [#_*]-oracle of Lemma 3.2 is realised through
      Lemma 3.3, whose [#]-oracle calls land on OR-substituted circuits
      built by {!Shapmc_circuits.Or_subst} (Lemma 9) and counted by the
      plain circuit counter.

    The reverse direction {!count_via_shap} counts models of a circuit
    using only a Shapley oracle (Lemma 3.4 over circuits). *)

(** [shap_direct ~vars g] returns the Shapley value of every universe
    variable.  @raise Invalid_argument if [vars] misses circuit
    variables.  @raise Invalid_argument if [vars] lists a variable
    twice. *)
val shap_direct : vars:int list -> Circuit.node -> (int * Rat.t) list

(** [shap_via_reduction ~vars g] computes the same values through the
    Lemma 3.2 + 3.3 + Lemma 9 oracle chain.
    @raise Invalid_argument as {!shap_direct} does. *)
val shap_via_reduction : vars:int list -> Circuit.node -> (int * Rat.t) list

(** [count_via_shap ~vars g] computes [#G] using only Shapley-value
    computations on OR-substituted copies of [g] (Lemma 3.4).
    @raise Invalid_argument as {!shap_direct} does. *)
val count_via_shap : vars:int list -> Circuit.node -> Bigint.t

(** [kcounts_via_reduction ~vars g] computes [#_{0..n} G] by the Lemma 3.3
    route (OR-substitute with [l = 1..n+1], count, interpolate) — the
    ablation partner of the direct stratified counter in experiment E8.
    @raise Invalid_argument as {!shap_direct} does. *)
val kcounts_via_reduction : vars:int list -> Circuit.node -> Kvec.t

(** [interaction ~vars g i j] is the (pairwise) Shapley interaction index

    {v I(i,j) = Σ_{S ⊆ N∖{i,j}} |S|!(n−|S|−2)!/(n−1)! · Δij(S)
       Δij(S) = F(S∪{i,j}) − F(S∪{i}) − F(S∪{j}) + F(S) v}

    computed polynomially on the d-D circuit: [Δij] summed over the sets
    of size [k] is [D_j[k]] in [G[X_i:=1]] minus [D_j[k]] in
    [G[X_i:=0]], so two conditionings on [X_i] and one
    {!Shapmc_circuits.Count.differences} pass over each give the index.
    Positive values mean [i] and [j] are complementary, negative
    substitutive, zero independent.
    @raise Invalid_argument if [i = j], either is outside [vars],
    [vars] has fewer than 2 variables or lists one twice. *)
val interaction : vars:int list -> Circuit.node -> int -> int -> Rat.t

(** [interaction_naive ~vars f i j] — exponential reference on a
    formula.  @raise Invalid_argument as {!interaction} does, or if [vars]
    misses variables of [f]. *)
val interaction_naive : vars:int list -> Formula.t -> int -> int -> Rat.t

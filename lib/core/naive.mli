(** Reference Shapley-value algorithms (exponential; ground truth).

    Two independent implementations of the definition, used to validate
    every polynomial algorithm in this library:

    - {!shap_permutations} is Eq. (1) verbatim: average the marginal
      contribution of [X_i] over all [n!] permutations.
    - {!shap_subsets} is the Proposition 3 form, Eq. (2):
      [Shap(F, X_i) = Σ_k c_k (#_k F[X_i:=1] − #_k F[X_i:=0])] with
      brute-force stratified counts.

    Both are relative to an explicit variable universe: the Shapley value
    of a variable depends on how many players there are, including players
    the function ignores. *)

(** [shap_permutations ~vars f] evaluates Eq. (1) over all permutations of
    [vars].  Exponential in a factorial way; capped at 8 variables.
    @raise Invalid_argument beyond the cap or if [vars] misses variables
    of [f]. *)
val shap_permutations : vars:int list -> Formula.t -> (int * Rat.t) list

(** [shap_subsets ~vars f] evaluates Eq. (2) with brute-force counts
    ([2^n] enumeration; capped at 26 variables, as {!Semantics} is). *)
val shap_subsets : vars:int list -> Formula.t -> (int * Rat.t) list

(** [shap_sum shap] is [Σ_i Shap(F, X_i)] (cf. Proposition 5). *)
val shap_sum : (int * Rat.t) list -> Rat.t

(** [permutation_table ~vars f] is the table of Example 2: for every
    permutation [Π] of [vars] (listed in lexicographic order) and every
    variable [i], the marginal [F[Π^{<i} ∪ {i}] − F[Π^{<i}]] as [-1], [0]
    or [1].  Capped at 8 variables. *)
val permutation_table : vars:int list -> Formula.t -> (int list * int list) list

(** Other cooperative-game power indices, for comparison with the Shapley
    value.

    The Banzhaf value of a variable drops the permutation weighting and
    simply averages the marginal contribution over all [2^{n-1}] subsets
    of the other players:
    [Banzhaf(F, X_i) = (#F[X_i:=1] − #F[X_i:=0]) / 2^{n-1}].
    Unlike the Shapley value it needs only {e plain} model counts — no
    fixed-size stratification and hence no OR-substitution machinery: the
    contrast illuminates exactly what Theorem 3.1 has to work for.
    (Livshits et al. [21] study both notions over query lineage.) *)

(** [banzhaf ~vars f] — brute-force reference (exponential).
    @raise Invalid_argument if [vars] misses variables of [f] or lists
    one twice. *)
val banzhaf : vars:int list -> Formula.t -> (int * Rat.t) list

(** [banzhaf_circuit ~vars g] — polynomial on d-D circuits: the
    numerator of every variable is the total of its difference vector,
    all [n] from one {!Shapmc_circuits.Count.differences} pass.
    @raise Invalid_argument as {!banzhaf} does. *)
val banzhaf_circuit : vars:int list -> Circuit.node -> (int * Rat.t) list

(** [banzhaf_via_count_oracle ~count ~vars f] — through any plain counting
    oracle (e.g. DPLL): the Banzhaf analogue of the paper's pipeline,
    needing no stratified counts.  @raise Invalid_argument as {!banzhaf}
    does. *)
val banzhaf_via_count_oracle :
  count:(vars:int list -> Formula.t -> Bigint.t) ->
  vars:int list ->
  Formula.t ->
  (int * Rat.t) list

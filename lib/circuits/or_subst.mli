(** OR-substitution on deterministic & decomposable circuits (Lemma 9).

    The disjunction [Z_1 ∨ ... ∨ Z_l] replacing a variable is not itself
    deterministic, so it is installed as the equivalent deterministic chain

    {v G∨(Z_i..Z_l) = Z_i ∨ (¬Z_i ∧ G∨(Z_{i+1}..Z_l)),   G∨(Z_l) = Z_l v}

    of size [O(l)], and a negated occurrence [¬X] becomes
    [¬Z_1 ∧ ... ∧ ¬Z_l] (both deterministic and decomposable since the
    [Z_i] are distinct fresh variables).  The whole transformation runs in
    [O(|G| + k·l)] for a variable with [k] occurrences — the bound stated
    after Lemma 9 and measured by experiment E7.

    Fresh blocks come from Definition 1's one allocator,
    {!Shapmc_boolean.Subst.block_subst}; this module supplies only how a
    circuit installs them.  {!or_subst} is the substitution of the
    class record [Circuit_shapley] hands to Theorem 3.1's chain in
    {!Shapmc_core.Pipeline}, which builds [~G], [~G'], [G^(l)] and
    [G^(l,i)] from it by their widths. *)

type blocks = (int * int list) list

(** [det_or_chain zs] is the deterministic chain circuit for
    [⋁ zs] ([cfalse] for the empty list). *)
val det_or_chain : int list -> Circuit.node

(** [or_subst ~widths g] replaces each variable [v] of the universe
    (default: the variables of [g]) by a disjunction of [widths v] fresh
    variables (width 0: false).  Universe variables absent from [g] get
    fresh blocks in the output universe without altering the circuit.
    Fresh variables are chosen above the universe, block by block in
    ascending order of [v], as {!Shapmc_boolean.Subst.or_subst} does.
    @raise Invalid_argument if the universe misses a circuit variable or
    a width is negative. *)
val or_subst :
  ?universe:Vset.t -> widths:(int -> int) -> Circuit.node ->
  Circuit.node * blocks

(** [uniform_or ~l g] is the circuit analogue of [F^(l)] (every variable
    replaced by [l] fresh ones). *)
val uniform_or :
  ?universe:Vset.t -> l:int -> Circuit.node -> Circuit.node * blocks

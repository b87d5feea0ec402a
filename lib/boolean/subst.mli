(** Substitutions of variables by formulas, and the paper's OR-/AND-
    substitutions (Definition 1 and the end of Section 3).

    An OR-substitution maps each variable [X_i] to a disjunction
    [Z_i^1 ∨ ... ∨ Z_i^{m_i}] of fresh variables; [m_i = 0] maps [X_i] to
    false.  The uniform width-[l] OR-substitution [F^(l)] is the workhorse of
    Lemmas 3.3 and 3.4 (it satisfies Claim 3.5:
    [#F^(l) = Σ_k (2^l − 1)^k #_k F]). *)

(** Description of an applied uniform substitution: for each original
    variable, the block of fresh variables that replaced it. *)
type blocks = (int * int list) list

(** All substitution builders below take an optional [?universe]: the set
    of declared variables of the function (default: [Formula.vars f]).
    Universe variables not occurring in [f] still receive fresh blocks —
    they are players, and their replacements appear in the substituted
    function's universe — but no syntactic occurrence changes.
    @raise Invalid_argument if the universe misses a variable of [f]. *)

(** [apply theta f] is [F[theta]]: every variable [v] is replaced by
    [theta v] ([theta] must be total on [vars f], identity by default via
    [Formula.var]). *)
val apply : (int -> Formula.t) -> Formula.t -> Formula.t

(** [block_subst ~who ~noun ~kind ~vars ~size ~install ~widths x] is
    Definition 1 for any class: each universe variable (default
    [vars x]), in ascending order, gets a block of [widths v] fresh
    variables above the universe, [install blocks x] builds the result,
    and {!Shapmc_obs.Obs} records it as [kind], sized by [size].
    {!or_subst}, {!uniform_and} and circuits' [Or_subst.or_subst] run it.
    @raise Invalid_argument ["who: universe misses noun"] or
    ["who: negative width"]. *)
val block_subst :
  who:string -> noun:string -> kind:string -> vars:('x -> Vset.t) ->
  size:('x -> int) -> install:(blocks -> 'x -> 'x) -> ?universe:Vset.t ->
  widths:(int -> int) -> 'x -> 'x * blocks

(** [or_subst widths f] applies the OR-substitution in which variable [v]
    is replaced by a disjunction of [widths v] fresh variables.  Returns the
    substituted formula together with the fresh blocks.  The proofs'
    instances are widths: [~F] all 1 and [~F'] 0 at [X_i] (Lemma 3.2),
    [F^(l,i)] 1 at [X_i] and [l] elsewhere (Lemma 3.4).
    @raise Invalid_argument if some width is negative. *)
val or_subst :
  ?universe:Vset.t -> widths:(int -> int) -> Formula.t -> Formula.t * blocks

(** [uniform_or ~l f] is the paper's [F^(l)]: every variable replaced by a
    disjunction of [l] fresh variables. *)
val uniform_or : ?universe:Vset.t -> l:int -> Formula.t -> Formula.t * blocks

(** [uniform_and ~l f] is the AND-substitution variant [F^(l)] from the end
    of Section 3 (Claim 3.7). *)
val uniform_and : ?universe:Vset.t -> l:int -> Formula.t -> Formula.t * blocks

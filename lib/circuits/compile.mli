(** Top-down compilation of formulas into d-D circuits (a d-DNNF-style
    compiler).

    Knowledge compilation turns a Boolean function into a deterministic &
    decomposable circuit so that counting — and hence, by Theorem 4.1,
    Shapley values — become polynomial in the circuit size (Section 4; the
    compilation itself may take exponential time, "the price to pay").

    The compiler is the circuit instance of {!Dpll.search}, the same
    search that counts: a decision on a block [B] becomes Lemma 9's
    gadget, the deterministic OR [(¬B ∧ C_0) ∨ (B ∧ C_1)] over the
    cofactor circuits, unit propagation the decomposable AND [L ∧ C_1]
    of the fixed literals and the residue's circuit (how
    [shapmc dimacs] compiles CNF), variable-disjoint parts of a
    conjunction or disjunction become a decomposable AND or a disjoint
    OR gate, [¬g] becomes a NOT gate over [g]'s circuit, and memoized
    subformulas share one node of the DAG, as c2d/Dsharp-style
    compilers do.

    The block is a variable [x] with its twins, the variables that are
    leaves of exactly the [∨] (or [∧]) nodes [x] is a leaf of and occur
    nowhere else (see {!Dpll}).  Its circuit [B] is the disjoint OR (or
    decomposable AND) of their variables, built once and shared; a
    variable without twins gives the Shannon expansion
    [(¬x ∧ C_0) ∨ (x ∧ C_1)].  Twins are leaves, not compound
    subformulas, because {!Formula.or_} flattens a substituted block into
    an enclosing [∨].  So on the OR-substituted [F^(l)] of Lemmas 3.3 and
    3.4 the search decides once per block of [l] fresh variables, and
    [compile] of [F^(l)] stays within [3·n·l] gates of [compile] of an
    [n]-variable [F] (tested for [l ≤ 8]; about [n·l] on experiment
    E7's chain), where deciding on one fresh variable at a time grows
    faster than linearly in [l]. *)

(** [compile f] returns an equivalent d-D circuit over the variables of
    [f] (a subset: simplification can eliminate variables). *)
val compile : Formula.t -> Circuit.node

(** [compile_with_stats f] also reports the search effort, [branches]
    counting decisions on a block or a lone variable and [propagations]
    the literals propagated; it equals what {!Dpll.count_with_stats}
    reports on [f]. *)
val compile_with_stats : Formula.t -> Circuit.node * Dpll.stats

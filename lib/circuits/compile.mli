(** Top-down compilation of formulas into d-D circuits (a d-DNNF-style
    compiler).

    Knowledge compilation turns a Boolean function into a deterministic &
    decomposable circuit so that counting — and hence, by Theorem 4.1,
    Shapley values — become polynomial in the circuit size (Section 4; the
    compilation itself may take exponential time, "the price to pay").

    The compiler is the circuit instance of {!Dpll.search}, the same
    search that counts: a Shannon expansion on [x] becomes the
    deterministic OR [(¬x ∧ C_0) ∨ (x ∧ C_1)], variable-disjoint parts of
    a conjunction or disjunction become a decomposable AND or a disjoint
    OR gate, [¬g] becomes a NOT gate over [g]'s circuit, and memoized
    subformulas share one node of the DAG.  This mirrors what
    c2d/Dsharp-style compilers do. *)

(** [compile f] returns an equivalent d-D circuit over the variables of
    [f] (a subset: simplification can eliminate variables). *)
val compile : Formula.t -> Circuit.node

(** [compile_with_stats f] also reports the search effort; it equals
    what {!Dpll.count_with_stats} reports on [f]. *)
val compile_with_stats : Formula.t -> Circuit.node * Dpll.stats

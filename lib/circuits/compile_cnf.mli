(** CNF-specialized d-DNNF compilation.

    The generic compiler ({!Compile}) works on formula ASTs; this one
    works directly on clause sets, which lets it run {e unit propagation}
    before every decision — each propagated literal becomes a
    decomposable AND factor — in addition to clause-level connected-
    component decomposition with a component cache.  This matches how
    c2d/Dsharp treat DIMACS input and is the preferred engine for CNF
    instances ({!Shapmc_counting.Dimacs}).

    Pure-literal elimination is deliberately {e not} performed: it
    preserves satisfiability but not model counts.

    Output circuits use only variables occurring in the clauses; callers
    count over a larger declared universe via the [~vars] arguments of
    the counting functions. *)

type stats = { decisions : int; propagations : int; cache_hits : int }

(** [compile cnf] returns a d-D circuit equivalent to the conjunction of
    the clauses. *)
val compile : Nf.clause list -> Circuit.node

val compile_with_stats : Nf.clause list -> Circuit.node * stats

(** [compile_dimacs inst] compiles a parsed DIMACS instance. *)
val compile_dimacs : Dimacs.instance -> Circuit.node

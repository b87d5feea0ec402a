(** Hypergraph acyclicity for CNF tractability classes.

    Section 3 of the paper notes that positive β-acyclic CNF is closed
    under OR-substitutions and has tractable model counting
    (Brault-Baron–Capelli–Mengel), hence tractable Shapley values by
    Corollary 7.  This module provides the recognizer: the hypergraph of
    a CNF has one vertex per variable and one hyperedge per clause, and
    is β-acyclic iff exhaustive {e nest-point elimination} (remove a
    vertex whose incident edges form a ⊆-chain; drop empty and duplicate
    edges) empties it. *)

(** [is_beta_acyclic edges] decides β-acyclicity of the hypergraph with
    the given hyperedges (variable sets). *)
val is_beta_acyclic : Vset.t list -> bool

(** [is_beta_acyclic_cnf cnf] composes the two. *)
val is_beta_acyclic_cnf : Nf.clause list -> bool

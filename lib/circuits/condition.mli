(** Conditioning a circuit on a partial valuation.

    [G[X := b]] replaces the variable gate by a constant and
    re-simplifies bottom-up.  Conditioning preserves determinism
    (mutually exclusive children stay so under restriction) and
    decomposability (variable scopes only shrink), so the result is again
    a d-D circuit — the [m_i ∈ {0, 1}] corner of OR-substitution used
    throughout Lemmas 3.2 and 3.4 and the basis of the polynomial Shapley
    algorithm of Theorem 4.1. *)

(** [restrict v b g] is [G[X_v := b]]; the result does not mention [v]. *)
val restrict : int -> bool -> Circuit.node -> Circuit.node


(** Conditioning a circuit on a partial valuation.

    [G[X := b]] replaces the variable gate by a constant and re-simplifies
    bottom-up.  Conditioning preserves determinism (children that were
    mutually exclusive stay so under restriction) and decomposability
    (variable scopes only shrink), so the result is again a d-D circuit —
    this is the [m_i ∈ {0, 1}]-width corner of OR-substitution used
    throughout the proofs of Lemmas 3.2 and 3.4, and the basis of the
    polynomial Shapley algorithm of Theorem 4.1. *)

(** [restrict v b g] is [G[X_v := b]]; the result does not mention [v]. *)
let restrict v b =
  Circuit.memo (fun go (g : Circuit.node) ->
      if not (Vset.mem v g.vars) then g
      else
        match g.gate with
        | Circuit.Ctrue | Circuit.Cfalse -> g
        | Circuit.Cvar _ -> Circuit.cbool b
        | Circuit.Cnot x -> Circuit.cnot (go x)
        | Circuit.Cand gs -> Circuit.cand (List.map go gs)
        | Circuit.Cor (Circuit.Deterministic, gs) ->
          Circuit.cor_det (List.map go gs)
        | Circuit.Cor (Circuit.Disjoint, gs) ->
          Circuit.cor_disj (List.map go gs))

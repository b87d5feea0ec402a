(* Shannon expansion builds (¬x ∧ C(F[x:=0])) ∨ (x ∧ C(F[x:=1])): the OR
   is deterministic (the branches disagree on x), the ANDs are
   decomposable (the cofactors do not mention x). *)
let circuit =
  { Dpll.const = Circuit.cbool;
    var = Circuit.cvar;
    not_ = Circuit.cnot;
    conj = Circuit.cand;
    disj = Circuit.cor_disj;
    shannon =
      (fun x ~scope:_ lo hi ->
         Circuit.cor_det
           [ Circuit.cand [ Circuit.cnot (Circuit.cvar x); lo ];
             Circuit.cand [ Circuit.cvar x; hi ] ]) }

let compile_with_stats f = Dpll.search circuit f
let compile f = fst (compile_with_stats f)

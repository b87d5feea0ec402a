(* A decision on the block B builds Lemma 9's gadget
   (¬B ∧ C(F[B:=0])) ∨ (B ∧ C(F[B:=1])): the OR is deterministic (the
   branches disagree on B), the ANDs are decomposable (the cofactors do
   not mention B's variables).  A one-variable block is the Shannon
   expansion (¬x ∧ C(F[x:=0])) ∨ (x ∧ C(F[x:=1])). *)
let circuit =
  { Dpll.const = Circuit.cbool;
    var = Circuit.cvar;
    not_ = Circuit.cnot;
    conj = Circuit.cand;
    disj = Circuit.cor_disj;
    decide =
      (fun b ~scope:_ lo hi ->
         Circuit.cor_det
           [ Circuit.cand [ Circuit.cnot b; lo ]; Circuit.cand [ b; hi ] ]) }

let compile_with_stats f = Dpll.search circuit f
let compile f = fst (compile_with_stats f)

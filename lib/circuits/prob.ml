let uniform_half _ = Rat.of_ints 1 2

let probability ~weights =
  Circuit.memo (fun go (g : Circuit.node) ->
      match g.gate with
      | Circuit.Ctrue -> Rat.one
      | Circuit.Cfalse -> Rat.zero
      | Circuit.Cvar v -> weights v
      | Circuit.Cnot h -> Rat.sub Rat.one (go h)
      | Circuit.Cand gs ->
        List.fold_left (fun acc h -> Rat.mul acc (go h)) Rat.one gs
      | Circuit.Cor (Circuit.Deterministic, gs) ->
        (* mutually exclusive: probabilities add *)
        List.fold_left (fun acc h -> Rat.add acc (go h)) Rat.zero gs
      | Circuit.Cor (Circuit.Disjoint, gs) ->
        (* independent union: 1 − Π (1 − p) *)
        Rat.sub Rat.one
          (List.fold_left
             (fun acc h -> Rat.mul acc (Rat.sub Rat.one (go h)))
             Rat.one gs))

(* Leaf [v]'s true weight [q·p_v + q·e_v·t] is [q] times its terms for
   [S ∌ v] (probability [p_v]) and for [S ∋ v] (entity value [e_v]); its
   false weight is [q] times their complements.  So the root vector of
   [G[x:=b]] is [q^{n−1}] times the polynomial whose coefficient [k] sums
   [E[G[x:=b] | X_S = e_S]] over the size-[k] sets [S] of the other
   variables, and [x]'s marginal contribution to [S] is [e_x − p_x] times
   the difference of two such expectations. *)
let shap_score ~weights ~entity ~vars root =
  let q =
    Vset.fold
      (fun v q ->
         let d = Rat.den (weights v) in
         Bigint.mul q (Bigint.div d (Bigint.gcd q d)))
      (Circuit.vars root) Bigint.one
  in
  let bit v = if entity v then Rat.one else Rat.zero in
  let scaled r = Rat.to_bigint (Rat.mul_bigint r q) in
  let weight =
    { Count.leaf =
        (fun v -> Kvec.make ~n:1 [| scaled (weights v); scaled (bit v) |]);
      free = Kvec.make ~n:1 [| q; q |] }
  in
  let n = List.length vars in
  List.map
    (fun (x, d) ->
       let slope = Rat.sub (bit x) (weights x) in
       let value = Rat.mul slope (Combi.shapley_of_diffs ~n (Kvec.get d)) in
       (x, Rat.div value (Rat.of_bigint (Bigint.pow q (n - 1)))))
    (Count.differences ~weight ~vars root)

type blocks = (int * int list) list

let det_or_chain zs =
  let rec go = function
    | [] -> Circuit.cfalse
    | [ z ] -> Circuit.cvar z
    | z :: rest ->
      Circuit.cor_det
        [ Circuit.cvar z;
          Circuit.cand [ Circuit.cnot (Circuit.cvar z); go rest ] ]
  in
  go zs

(* Negated occurrences get the paper's direct form ¬Z_1 ∧ ... ∧ ¬Z_l
   rather than a ¬-gate over the chain; both are correct, this one matches
   Lemma 9's construction. *)
let neg_chain zs =
  Circuit.cand (List.map (fun z -> Circuit.cnot (Circuit.cvar z)) zs)

let install blocks root =
  let block_tbl = Hashtbl.create 16 in
  List.iter (fun (v, zs) -> Hashtbl.replace block_tbl v zs) blocks;
  Circuit.memo
    (fun go (g : Circuit.node) ->
       match g.gate with
       | Circuit.Ctrue | Circuit.Cfalse -> g
       | Circuit.Cvar v -> det_or_chain (Hashtbl.find block_tbl v)
       | Circuit.Cnot { gate = Circuit.Cvar v; _ } ->
         neg_chain (Hashtbl.find block_tbl v)
       | Circuit.Cnot x -> Circuit.cnot (go x)
       | Circuit.Cand gs -> Circuit.cand (List.map go gs)
       | Circuit.Cor (Circuit.Deterministic, gs) ->
         Circuit.cor_det (List.map go gs)
       | Circuit.Cor (Circuit.Disjoint, gs) ->
         Circuit.cor_disj (List.map go gs))
    root

(* Pre/post gate counts witness Lemma 9's O(|G| + k·ℓ) bound. *)
let or_subst ?universe ~widths root =
  Subst.block_subst ~who:"Or_subst" ~noun:"circuit variables"
    ~kind:"circuit.or" ~vars:Circuit.vars ~size:Circuit.size ~install
    ?universe ~widths root

let uniform_or ?universe ~l g = or_subst ?universe ~widths:(fun _ -> l) g

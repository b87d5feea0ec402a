module Kvec_table = Hashtbl.Make (Kvec)

(* Symmetric players share a difference vector, and so a value: the
   facts of one group in a hierarchical lineage, or the copies of one
   variable after OR-substitution.  Eq. (2)'s bignum dot product and
   normalisation cost several times the whole backward pass, so each
   distinct vector is evaluated once. *)
let shap_direct ~vars g =
  let n = List.length vars in
  let values = Kvec_table.create 16 in
  List.map
    (fun (i, d) ->
       match Kvec_table.find_opt values d with
       | Some v -> (i, v)
       | None ->
         let v = Combi.shapley_of_diffs ~n (Kvec.get d) in
         Kvec_table.add values d v;
         (i, v))
    (Count.differences ~weight:Count.counting ~vars g)

(* The d-D circuits as a class closed under OR-substitution (Lemma 9).
   The chain's oracles are the plain circuit counter and [shap_direct]. *)
let circuits =
  Pipeline.
    {
      or_subst =
        (fun ~universe ~widths g -> Or_subst.or_subst ~universe ~widths g);
      vars = Circuit.vars;
      at_zero = Circuit.eval_set Vset.empty;
    }

let kcounts_via_reduction ~vars g =
  Pipeline.kcounts_via_count circuits ~count:(fun ~l:_ -> Count.count) ~vars g

let shap_via_reduction ~vars g =
  Pipeline.shap_via_count circuits ~count:(fun ~l:_ -> Count.count) ~vars g

let count_via_shap ~vars g =
  Kvec.total
    (Pipeline.kcounts_via_shap circuits ~shap:(fun ~l:_ -> shap_direct) ~vars g)

let interaction_weight ~n k =
  (* k! (n-k-2)! / (n-1)! *)
  Rat.make
    (Bigint.mul (Combi.factorial k) (Combi.factorial (n - k - 2)))
    (Combi.factorial (n - 1))

let check_pair ~vars i j =
  if i = j then invalid_arg "interaction: i = j";
  if not (List.mem i vars && List.mem j vars) then
    invalid_arg "interaction: variable outside universe";
  if List.length vars < 2 then invalid_arg "interaction: universe too small"

let interaction ~vars g i j =
  let sorted =
    Vset.elements
      (Vset.universe ~who:"Circuit_shapley" ~noun:"circuit variables" ~vars
         (Circuit.vars g))
  in
  check_pair ~vars:sorted i j;
  let n = List.length sorted in
  let others = List.filter (fun v -> v <> i) sorted in
  let diff b =
    List.assoc j
      (Count.differences ~weight:Count.counting ~vars:others
         (Condition.restrict i b g))
  in
  let delta = Kvec.sub (diff true) (diff false) in
  let acc = ref Rat.zero in
  for k = 0 to n - 2 do
    acc :=
      Rat.add !acc
        (Rat.mul_bigint (interaction_weight ~n k) (Kvec.get delta k))
  done;
  !acc

let interaction_naive ~vars f i j =
  let sorted =
    Vset.elements
      (Vset.universe ~who:"interaction_naive" ~noun:"variables" ~vars
         (Formula.vars f))
  in
  check_pair ~vars:sorted i j;
  let n = List.length sorted in
  let others =
    Array.of_list (List.filter (fun v -> v <> i && v <> j) sorted)
  in
  let m = Array.length others in
  if m > 22 then invalid_arg "interaction_naive: too many variables";
  let acc = ref Rat.zero in
  for mask = 0 to (1 lsl m) - 1 do
    let s = ref Vset.empty in
    for b = 0 to m - 1 do
      if mask land (1 lsl b) <> 0 then s := Vset.add others.(b) !s
    done;
    let value extra = Bool.to_int (Formula.eval_set (Vset.union !s extra) f) in
    let delta =
      value (Vset.of_list [ i; j ]) - value (Vset.singleton i)
      - value (Vset.singleton j) + value Vset.empty
    in
    acc :=
      Rat.add !acc
        (Rat.mul (interaction_weight ~n (Vset.cardinal !s)) (Rat.of_int delta))
  done;
  !acc

let sorted_universe ~vars g =
  let universe = Vset.of_list vars in
  if Vset.cardinal universe <> List.length vars then
    invalid_arg "Circuit_shapley: duplicate variables in the universe";
  if not (Vset.subset (Circuit.vars g) universe) then
    invalid_arg "Circuit_shapley: universe misses circuit variables";
  (universe, List.sort compare vars)

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

let kcounts_via_reduction ~vars g =
  let universe, sorted = sorted_universe ~vars g in
  let n = List.length sorted in
  Reductions.kcounts_via_counting ~n ~count_subst:(fun ~l ->
      let g', blocks = Or_subst.uniform_or ~universe ~l g in
      Count.count ~vars:(List.concat_map snd blocks) g')

let shap_via_reduction ~vars g =
  let universe, sorted = sorted_universe ~vars g in
  let n = List.length sorted in
  let kcount_of ~vars g' = kcounts_via_reduction ~vars g' in
  let kcount_full =
    let tilde_g, blocks = Or_subst.isomorphic_copy ~universe g in
    kcount_of ~vars:(List.concat_map snd blocks) tilde_g
  in
  let kcount_drop pos =
    let i = List.nth sorted pos in
    let tilde_g', blocks = Or_subst.zap ~universe ~zero:(Vset.singleton i) g in
    kcount_of ~vars:(List.concat_map snd blocks) tilde_g'
  in
  let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
  List.mapi (fun pos i -> (i, values.(pos))) sorted

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
  let _, sorted = sorted_universe ~vars g in
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
  let universe = Vset.of_list vars in
  if Vset.cardinal universe <> List.length vars then
    invalid_arg "interaction_naive: duplicate variables in the universe";
  if not (Vset.subset (Formula.vars f) universe) then
    invalid_arg "interaction_naive: universe misses variables";
  let sorted = List.sort compare vars in
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

let count_via_shap ~vars g =
  let universe, sorted = sorted_universe ~vars g in
  let n = List.length sorted in
  let f_zero = Circuit.eval_set Vset.empty g in
  Reductions.count_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
      let i = List.nth sorted pos in
      let g', z, blocks = Or_subst.uniform_or_except ~universe ~l ~keep:i g in
      let gvars = List.concat_map snd blocks in
      (* The Shapley oracle here is the polynomial direct algorithm on the
         substituted circuit — Shap(~G) per Theorem 4.1. *)
      match List.assoc_opt z (shap_direct ~vars:gvars g') with
      | Some v -> v
      | None -> failwith "Circuit_shapley: oracle did not report Z_i")

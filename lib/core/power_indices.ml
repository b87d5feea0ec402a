let check ~vars vs =
  let universe = Vset.of_list vars in
  if Vset.cardinal universe <> List.length vars then
    invalid_arg "Power_indices: duplicate variables in the universe";
  if not (Vset.subset vs universe) then
    invalid_arg "Power_indices: universe misses variables";
  List.sort compare vars

let of_diff ~n diff = Rat.make diff (Combi.pow2 (n - 1))

let banzhaf_via_count_oracle ~count ~vars f =
  let sorted = check ~vars (Formula.vars f) in
  let n = List.length sorted in
  List.map
    (fun i ->
       let others = List.filter (fun v -> v <> i) sorted in
       let c1 = count ~vars:others (Formula.restrict i true f) in
       let c0 = count ~vars:others (Formula.restrict i false f) in
       (i, of_diff ~n (Bigint.sub c1 c0)))
    sorted

let banzhaf ~vars f =
  banzhaf_via_count_oracle ~count:(fun ~vars f -> Brute.count ~vars f) ~vars f

(* [#G[X_i:=1] − #G[X_i:=0]] is the total of [i]'s difference vector. *)
let banzhaf_circuit ~vars g =
  let n = List.length (check ~vars (Circuit.vars g)) in
  List.map
    (fun (i, d) -> (i, of_diff ~n (Kvec.total d)))
    (Count.differences ~weight:Count.counting ~vars g)

let encode (inst : Bipartite.t) =
  let db = Database.create () in
  Stretch.declare_q0_schema db;
  (* Left part first so that lineage variables 1..a are the x_i and
     a+1..a+b the y_j. *)
  for i = 0 to inst.Bipartite.a - 1 do
    ignore (Database.insert db "R" [| Value.int i |])
  done;
  for j = 0 to inst.Bipartite.b - 1 do
    ignore (Database.insert db "T" [| Value.int j |])
  done;
  List.iter
    (fun (i, j) ->
       ignore (Database.insert db "S" [| Value.int i; Value.int j |]))
    inst.Bipartite.edges;
  (db, Stretch.q0 ())

type q0_shapley_oracle = Database.t -> (int * Rat.t) list

(* Q0 is non-hierarchical, so the dichotomy compiles its lineage: the
   exponential part, exactly where Theorem 5.1 says the cost must live. *)
let reference_oracle db = fst (Dichotomy.shapley db (Stretch.q0 ()))

let count_via_q0_shapley ~oracle inst =
  let db, q = encode inst in
  let f = Lineage.lineage_formula db q in
  let universe = Vset.elements (Database.lineage_vars db) in
  let sorted = List.sort compare universe in
  let n = List.length sorted in
  let f_zero = Formula.eval_set Vset.empty f in
  Reductions.count_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
      let i = List.nth sorted pos in
      let widths v = if v = i then 1 else l in
      let db', blocks = Stretch.or_substituted_q0_db ~widths db in
      let z =
        match List.assoc_opt i blocks with
        | Some [ z ] -> z
        | _ -> failwith "Hardness: expected singleton block for kept variable"
      in
      match List.assoc_opt z (oracle db') with
      | Some v -> v
      | None -> failwith "Hardness: oracle did not report Z_i")

let oracle_calls (inst : Bipartite.t) =
  let n = inst.Bipartite.a + inst.Bipartite.b in
  n * n

module Fp = Shapmc_cache.Fingerprint

let relation db name =
  Database.digest db name @@ fun () ->
  let r = List.fold_left Fp.add_string Fp.empty [ "rel"; name ] in
  let r =
    Fp.add_int r
      (match Database.kind_of db name with
       | Database.Endogenous -> 1
       | Database.Exogenous -> 0)
  in
  let r = Fp.add_int r (Database.arity_of db name) in
  Fp.to_hex
    (List.fold_left
       (fun acc (st : Database.stored) ->
         let acc =
           Array.fold_left
             (fun acc v -> Fp.add_string acc (Value.literal v))
             acc st.Database.values
         in
         Fp.add_int acc (Option.value ~default:(-1) st.Database.lvar))
       r (Database.tuples db name))

let query q = Fp.digest [ "cq"; Cq.to_string q ]

let mentioned q =
  List.sort_uniq compare
    (List.map (fun (a : Cq.atom) -> a.Cq.rel) q.Cq.atoms)

(* The lineage's inputs, the query and the relations it mentions: the
   first part of [result_key]. *)
let lineage_key db q =
  Fp.digest
    ("lineage" :: query q
    :: List.concat_map (fun r -> [ r; relation db r ]) (mentioned q))

let result_key db q =
  let endogenous =
    List.filter
      (fun r -> Database.kind_of db r = Database.Endogenous)
      (Database.relation_names db)
  in
  Fp.digest
    ("result" :: lineage_key db q
    :: List.concat_map (fun r -> [ r; relation db r ]) endogenous)

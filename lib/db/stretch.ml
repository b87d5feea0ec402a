let dummy = Value.str "d"

let stretch_query ~is_endogenous q =
  let existing = Cq.variables q in
  let counter = ref 0 in
  let fresh_name () =
    incr counter;
    let rec try_name k =
      let name = Printf.sprintf "z$%d" k in
      if List.mem name existing then try_name (k + 1) else name
    in
    try_name !counter
  in
  let added = ref [] in
  let atoms =
    List.map
      (fun (a : Cq.atom) ->
         if not (is_endogenous a.rel) then a
         else if a.negated then
           invalid_arg
             ("Stretch.stretch_query: negated endogenous atom " ^ a.rel
              ^ " (Definition 10 is for positive queries)")
         else begin
           let z = fresh_name () in
           added := z :: !added;
           { a with Cq.args = Array.append [| Cq.V z |] a.args }
         end)
      q.Cq.atoms
  in
  (Cq.make atoms, List.rev !added)

let stretch_schema db =
  let out = Database.create () in
  List.iter
    (fun name ->
       let kind = Database.kind_of db name in
       let arity = Database.arity_of db name in
       let arity =
         match kind with
         | Database.Endogenous -> arity + 1
         | Database.Exogenous -> arity
       in
       Database.declare out name ~kind ~arity)
    (Database.relation_names db);
  out

let stretch_database_dummy db =
  let out = stretch_schema db in
  List.iter
    (fun name ->
       let kind = Database.kind_of db name in
       List.iter
         (fun (s : Database.stored) ->
            match (kind, s.lvar) with
            | Database.Exogenous, _ ->
              ignore (Database.insert out name s.values)
            | Database.Endogenous, Some v ->
              Database.insert_with_var out name
                (Array.append [| dummy |] s.values)
                ~lvar:v
            | Database.Endogenous, None -> assert false)
         (Database.tuples db name))
    (Database.relation_names db);
  out

let or_substituted_db ~widths db =
  let out = stretch_schema db in
  let supply = Fresh.make ~avoid:(Database.lineage_vars db) in
  let blocks = ref [] in
  let copy_counter = ref 0 in
  List.iter
    (fun name ->
       let kind = Database.kind_of db name in
       List.iter
         (fun (s : Database.stored) ->
            match (kind, s.lvar) with
            | Database.Exogenous, _ ->
              ignore (Database.insert out name s.values)
            | Database.Endogenous, Some v ->
              let w = widths v in
              if w < 0 then invalid_arg "Stretch.or_substituted_db: width";
              let zs = Fresh.fresh_block supply w in
              blocks := (v, zs) :: !blocks;
              List.iter
                (fun z ->
                   incr copy_counter;
                   (* Fresh first-attribute value per copy. *)
                   let zval = Value.str (Printf.sprintf "a%d" !copy_counter) in
                   Database.insert_with_var out name
                     (Array.append [| zval |] s.values)
                     ~lvar:z)
                zs
            | Database.Endogenous, None -> assert false)
         (Database.tuples db name))
    (Database.relation_names db);
  (out, List.sort compare !blocks)

let q0 () =
  Cq.make
    [ Cq.atom "R" [ Cq.V "x" ];
      Cq.atom "S" [ Cq.V "x"; Cq.V "y" ];
      Cq.atom "T" [ Cq.V "y" ] ]

let declare_q0_schema db =
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Exogenous ~arity:2;
  Database.declare db "T" ~kind:Database.Endogenous ~arity:1

let collapse_q0 db =
  if Database.arity_of db "R" <> 2 || Database.arity_of db "T" <> 2 then
    invalid_arg "Stretch.collapse_q0: expected stretched Q0 schema";
  let out = Database.create () in
  declare_q0_schema out;
  let r_rows = Database.tuples db "R" in
  let t_rows = Database.tuples db "T" in
  let composite (s : Database.stored) = Value.pair s.values.(0) s.values.(1) in
  List.iter
    (fun (s : Database.stored) ->
       match s.lvar with
       | Some v -> Database.insert_with_var out "R" [| composite s |] ~lvar:v
       | None -> assert false)
    r_rows;
  List.iter
    (fun (s : Database.stored) ->
       match s.lvar with
       | Some v -> Database.insert_with_var out "T" [| composite s |] ~lvar:v
       | None -> assert false)
    t_rows;
  (* S_new joins the stretched R and T through the old S. *)
  List.iter
    (fun (r : Database.stored) ->
       List.iter
         (fun (t : Database.stored) ->
            if Database.mem db "S" [| r.values.(1); t.values.(1) |] then
              ignore
                (Database.insert out "S" [| composite r; composite t |]))
         t_rows)
    r_rows;
  out

let or_substituted_q0_db ~widths db =
  let stretched, blocks = or_substituted_db ~widths db in
  (collapse_q0 stretched, blocks)

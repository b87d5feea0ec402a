type kind = Endogenous | Exogenous
type stored = { values : Value.t array; lvar : int option }

type relation = {
  kind : kind;
  arity : int;
  mutable rows : stored list; (* reverse insertion order *)
  index : (Value.t array, stored) Hashtbl.t; (* the rows, by values *)
  mutable digest : string option; (* of these rows; dropped on change *)
}

type t = {
  mutable rels : (string * relation) list; (* reverse declaration order *)
  mutable next_var : int;
  var_index : (int, string * Value.t array) Hashtbl.t;
}

let create () = { rels = []; next_var = 1; var_index = Hashtbl.create 64 }

let find db name =
  match List.assoc_opt name db.rels with
  | Some r -> r
  | None -> raise Not_found

let declare db name ~kind ~arity =
  if arity < 0 then invalid_arg "Database.declare: negative arity";
  if List.mem_assoc name db.rels then
    invalid_arg ("Database.declare: duplicate relation " ^ name);
  db.rels <-
    (name, { kind; arity; rows = []; index = Hashtbl.create 16; digest = None })
    :: db.rels

(* The one ground-tuple lookup: a probe of the relation's index. *)
let find_tuple db name values = Hashtbl.find_opt (find db name).index values

(* A new row goes to the front of [rows] and into the index. *)
let add_row r s =
  r.rows <- s :: r.rows;
  Hashtbl.replace r.index s.values s;
  r.digest <- None

let check_tuple r name values =
  if Array.length values <> r.arity then
    invalid_arg ("Database: arity mismatch for " ^ name);
  if Hashtbl.mem r.index values then
    invalid_arg ("Database: duplicate tuple in " ^ name)

let insert db name values =
  let r =
    try find db name
    with Not_found -> invalid_arg ("Database.insert: unknown relation " ^ name)
  in
  check_tuple r name values;
  let lvar =
    match r.kind with
    | Exogenous -> None
    | Endogenous ->
      let v = db.next_var in
      db.next_var <- v + 1;
      Hashtbl.replace db.var_index v (name, values);
      Some v
  in
  add_row r { values; lvar };
  lvar

let insert_with_var db name values ~lvar =
  let r =
    try find db name
    with Not_found ->
      invalid_arg ("Database.insert_with_var: unknown relation " ^ name)
  in
  if r.kind <> Endogenous then
    invalid_arg "Database.insert_with_var: relation is exogenous";
  check_tuple r name values;
  if Hashtbl.mem db.var_index lvar then
    invalid_arg "Database.insert_with_var: lineage variable already in use";
  Hashtbl.replace db.var_index lvar (name, values);
  db.next_var <- Stdlib.max db.next_var (lvar + 1);
  add_row r { values; lvar = Some lvar }

let remove db name values =
  let r =
    try find db name
    with Not_found -> invalid_arg ("Database.remove: unknown relation " ^ name)
  in
  match find_tuple db name values with
  | None -> false
  | Some s ->
    r.rows <- List.filter (fun s' -> s' != s) r.rows;
    Hashtbl.remove r.index values;
    r.digest <- None;
    (match s.lvar with
     | Some v -> Hashtbl.remove db.var_index v
     | None -> ());
    true

(* Domains may race to fill an empty slot; each stores the same
   string, so the race is benign. *)
let digest db name compute =
  let r = find db name in
  match r.digest with
  | Some d -> d
  | None ->
    let d = compute () in
    r.digest <- Some d;
    d

let kind_of db name = (find db name).kind
let arity_of db name = (find db name).arity
let relation_names db = List.rev_map fst db.rels
let tuples db name = List.rev (find db name).rows
let mem db name values = find_tuple db name values <> None

let active_domain db =
  let module Vs = Set.Make (struct
      type t = Value.t

      let compare = Value.compare
    end)
  in
  let acc = ref Vs.empty in
  List.iter
    (fun (_, r) ->
       List.iter (fun s -> Array.iter (fun v -> acc := Vs.add v !acc) s.values) r.rows)
    db.rels;
  Vs.elements !acc

let lineage_vars db =
  List.fold_left
    (fun acc (_, r) ->
       List.fold_left
         (fun acc s ->
            match s.lvar with None -> acc | Some v -> Vset.add v acc)
         acc r.rows)
    Vset.empty db.rels

let tuple_of_var db v = Hashtbl.find db.var_index v

let copy db =
  {
    rels =
      List.map
        (fun (n, r) -> (n, { r with index = Hashtbl.copy r.index }))
        db.rels;
    next_var = db.next_var;
    var_index = Hashtbl.copy db.var_index;
  }

let pp ppf db =
  List.iter
    (fun name ->
       let r = find db name in
       Format.fprintf ppf "%s%s/%d:@\n" name
         (match r.kind with Endogenous -> "^n" | Exogenous -> "^x")
         r.arity;
       List.iter
         (fun s ->
            Format.fprintf ppf "  (%a)%s@\n"
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                 Value.pp)
              (Array.to_list s.values)
              (match s.lvar with
               | Some v -> Printf.sprintf "  <- x%d" v
               | None -> ""))
         (tuples db name))
    (relation_names db)

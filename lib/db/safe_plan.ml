exception Not_safe of string

(* The residual query during planning: each atom with its partially
   substituted arguments (we reuse Cq.atom, substituting constants in
   place), the rows of its relation still consistent with the constants
   bound so far, and its unbound query variables as ids: the query's
   variable names in sorted order are [names.(0)], [names.(1)], ... *)
type part = { atom : Cq.atom; rows : Database.stored list; vars : Vset.t }

let subst_atom x v (a : Cq.atom) =
  {
    a with
    Cq.args =
      Array.map
        (function Cq.V y when y = x -> Cq.C v | t -> t)
        a.args;
  }

(* A ground atom keeps at most one row (set semantics): its leaf. *)
let row_leaf p =
  match p.rows with
  | [] -> Circuit.cfalse
  | { Database.lvar = None; _ } :: _ -> Circuit.ctrue
  | { Database.lvar = Some v; _ } :: _ -> Circuit.cvar v

(* [p]'s rows by the value they give [x].  A row counts only when all of
   [x]'s positions hold that one value. *)
let by_value x p =
  let args = p.atom.Cq.args in
  let positions =
    List.filter (fun i -> args.(i) = Cq.V x)
      (List.init (Array.length args) Fun.id)
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (s : Database.stored) ->
       let v = s.values.(List.hd positions) in
       if List.for_all (fun i -> Value.equal s.values.(i) v) positions then
         Hashtbl.replace table v
           (s :: Option.value ~default:[] (Hashtbl.find_opt table v)))
    p.rows;
  table

(* Variable-disjoint components of the residual query are independent. *)
let rec plan names parts =
  let ground, open_parts = List.partition (fun p -> Vset.is_empty p.vars) parts in
  let ground_circuits = List.map row_leaf ground in
  let rest =
    List.map
      (fun (_, members) -> plan_connected names members)
      (Vset.components ~vars:(fun p -> p.vars) open_parts)
  in
  (* SJF guarantees the parts use disjoint lineage variables. *)
  Circuit.cand (ground_circuits @ rest)

(* The root variable occurs in all atoms of a connected residual query;
   of several, the least id, i.e. the first name in sorted order. *)
and plan_connected names parts =
  let common =
    match parts with
    | [] -> Vset.empty
    | p :: rest -> List.fold_left (fun s q -> Vset.inter s q.vars) p.vars rest
  in
  match Vset.min_elt_opt common with
  | None ->
    raise
      (Not_safe
         "connected subquery without a root variable (query not hierarchical)")
  | Some id ->
    let x = names.(id) in
    (* Only a value every atom has a row for can satisfy the subquery;
       the others would plan to [false], which [cor_disj] drops. *)
    let tables = List.map (by_value x) parts in
    let values =
      Hashtbl.fold
        (fun v _ acc ->
           if List.for_all (fun t -> Hashtbl.mem t v) tables then v :: acc
           else acc)
        (List.hd tables) []
    in
    let branch v =
      plan names
        (List.map2
           (fun p t ->
              { atom = subst_atom x v p.atom; rows = Hashtbl.find t v;
                vars = Vset.remove id p.vars })
           parts tables)
    in
    (* Different values of x touch disjoint sets of tuples (each tuple
       fixes the value in x's position), hence disjoint lineage vars. *)
    Circuit.cor_disj (List.map branch (List.sort Value.compare values))

(* A query atom's rows: those of its relation that hold its constants. *)
let initial db id (a : Cq.atom) =
  let holds (s : Database.stored) =
    Array.for_all2
      (fun t v -> match t with Cq.C c -> Value.equal v c | Cq.V _ -> true)
      a.args s.values
  in
  let vars =
    Array.fold_left
      (fun vs t -> match t with Cq.V x -> Vset.add (id x) vs | Cq.C _ -> vs)
      Vset.empty a.args
  in
  { atom = a; rows = List.filter holds (Database.tuples db a.rel); vars }

let lineage_circuit db q =
  Cq.check_against q db;
  if not (Cq.is_positive q) then
    raise (Not_safe "query has negated atoms");
  if not (Cq.is_self_join_free q) then
    raise (Not_safe "query has self-joins");
  if not (Cq.is_hierarchical q) then raise (Not_safe "query not hierarchical");
  let names = Array.of_list (List.sort_uniq compare (Cq.variables q)) in
  let ids = Hashtbl.create 8 in
  Array.iteri (fun i x -> Hashtbl.replace ids x i) names;
  plan names (List.map (initial db (Hashtbl.find ids)) q.Cq.atoms)

let shapley db q =
  let c = lineage_circuit db q in
  let universe = Vset.elements (Database.lineage_vars db) in
  Circuit_shapley.shap_direct ~vars:universe c

(* The safe-plan circuit visits decomposition blocks contiguously, so a
   left-to-right leaf traversal of the circuit is exactly the
   Olteanu–Huang variable order. *)
let obdd_order db q =
  let touched =
    List.rev
      (Circuit.fold
         (fun acc (g : Circuit.node) ->
            match g.gate with Circuit.Cvar v -> v :: acc | _ -> acc)
         [] (lineage_circuit db q))
  in
  let rest =
    Vset.elements
      (Vset.diff (Database.lineage_vars db) (Vset.of_list touched))
  in
  touched @ rest

let lineage_obdd db q =
  let order = obdd_order db q in
  let m = Obdd.create_manager ~order in
  (m, Obdd.of_formula m (Lineage.lineage_formula db q))

exception Not_safe of string

(* The residual query during planning: each atom with its partially
   substituted arguments (we reuse Cq.atom, substituting constants in
   place) and the rows of its relation still consistent with the
   constants bound so far. *)
type part = { atom : Cq.atom; rows : Database.stored list }

let subst_atom x v (a : Cq.atom) =
  {
    a with
    Cq.args =
      Array.map
        (function Cq.V y when y = x -> Cq.C v | t -> t)
        a.args;
  }

let atom_vars (a : Cq.atom) =
  Array.to_list a.args
  |> List.filter_map (function Cq.V x -> Some x | Cq.C _ -> None)
  |> List.sort_uniq compare

let is_ground p = atom_vars p.atom = []

(* A ground atom keeps at most one row (set semantics): its leaf. *)
let row_leaf p =
  match p.rows with
  | [] -> Circuit.cfalse
  | { Database.lvar = None; _ } :: _ -> Circuit.ctrue
  | { Database.lvar = Some v; _ } :: _ -> Circuit.cvar v

(* Connected components of atoms sharing query variables. *)
let components parts =
  let merge groups (vs, members) =
    let touching, rest =
      List.partition
        (fun (ws, _) -> List.exists (fun v -> List.mem v ws) vs)
        groups
    in
    let vs' =
      List.sort_uniq compare
        (vs @ List.concat_map fst touching)
    in
    (vs', members @ List.concat_map snd touching) :: rest
  in
  List.fold_left merge []
    (List.map (fun p -> (atom_vars p.atom, [ p ])) parts)

let occurs x (a : Cq.atom) =
  Array.exists (function Cq.V y -> y = x | Cq.C _ -> false) a.args

(* A root variable of a connected residual query: occurs in all atoms. *)
let root_variable parts =
  match parts with
  | [] -> None
  | first :: _ ->
    List.find_opt
      (fun x -> List.for_all (fun p -> occurs x p.atom) parts)
      (atom_vars first.atom)

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

let rec plan parts =
  let ground, open_parts = List.partition is_ground parts in
  let ground_circuits = List.map row_leaf ground in
  let rest =
    List.map
      (fun (_, members) -> plan_connected members)
      (components open_parts)
  in
  (* SJF guarantees the parts use disjoint lineage variables. *)
  Circuit.cand (ground_circuits @ rest)

and plan_connected parts =
  match root_variable parts with
  | None ->
    raise
      (Not_safe
         "connected subquery without a root variable (query not hierarchical)")
  | Some x ->
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
      plan
        (List.map2
           (fun p t ->
              { atom = subst_atom x v p.atom; rows = Hashtbl.find t v })
           parts tables)
    in
    (* Different values of x touch disjoint sets of tuples (each tuple
       fixes the value in x's position), hence disjoint lineage vars. *)
    Circuit.cor_disj (List.map branch (List.sort Value.compare values))

(* A query atom's rows: those of its relation that hold its constants. *)
let initial db (a : Cq.atom) =
  let holds (s : Database.stored) =
    Array.for_all2
      (fun t v -> match t with Cq.C c -> Value.equal v c | Cq.V _ -> true)
      a.args s.values
  in
  { atom = a; rows = List.filter holds (Database.tuples db a.rel) }

let lineage_circuit db q =
  Cq.check_against q db;
  if not (Cq.is_positive q) then
    raise (Not_safe "query has negated atoms");
  if not (Cq.is_self_join_free q) then
    raise (Not_safe "query has self-joins");
  if not (Cq.is_hierarchical q) then raise (Not_safe "query not hierarchical");
  plan (List.map (initial db) q.Cq.atoms)

let shapley db q =
  let c = lineage_circuit db q in
  let universe = Vset.elements (Database.lineage_vars db) in
  Circuit_shapley.shap_direct ~vars:universe c

(* The safe-plan circuit visits decomposition blocks contiguously, so a
   left-to-right leaf traversal of the circuit is exactly the
   Olteanu–Huang variable order. *)
let obdd_order db q =
  let c = lineage_circuit db q in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit (g : Circuit.node) =
    if not (Hashtbl.mem seen g.id) then begin
      Hashtbl.replace seen g.id ();
      match g.gate with
      | Circuit.Cvar v -> order := v :: !order
      | Circuit.Ctrue | Circuit.Cfalse -> ()
      | Circuit.Cnot h -> visit h
      | Circuit.Cand gs | Circuit.Cor (_, gs) -> List.iter visit gs
    end
  in
  visit c;
  let touched = List.rev !order in
  let rest =
    Vset.elements
      (Vset.diff (Database.lineage_vars db) (Vset.of_list touched))
  in
  touched @ rest

let lineage_obdd db q =
  let order = obdd_order db q in
  let m = Obdd.create_manager ~order in
  (m, Obdd.of_formula m (Lineage.lineage_formula db q))

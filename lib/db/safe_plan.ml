exception Not_safe of string

(* The residual query during planning: atoms with partially substituted
   arguments.  We reuse Cq.atom, substituting constants in place. *)

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

let is_ground a = atom_vars a = []

(* Resolve a ground atom to a circuit leaf. *)
let ground_leaf db (a : Cq.atom) =
  let values =
    Array.map
      (function Cq.C v -> v | Cq.V _ -> assert false)
      a.args
  in
  match Database.find_tuple db a.rel values with
  | None -> Circuit.cfalse
  | Some { Database.lvar = None; _ } -> Circuit.ctrue
  | Some { Database.lvar = Some v; _ } -> Circuit.cvar v

(* Connected components of atoms sharing query variables. *)
let components atoms =
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
    (List.map (fun a -> (atom_vars a, [ a ])) atoms)

(* A root variable of a connected residual query: occurs in all atoms. *)
let root_variable atoms =
  match atoms with
  | [] -> None
  | first :: _ ->
    List.find_opt
      (fun x ->
         List.for_all
           (fun (a : Cq.atom) ->
              Array.exists (function Cq.V y -> y = x | Cq.C _ -> false) a.args)
           atoms)
      (atom_vars first)

(* Candidate values for branching on [x]: values appearing in the positions
   where [x] occurs, in any matching relation (a superset of the join
   result is fine — non-joining values yield false branches that the
   circuit constructors drop). *)
let candidate_values db x atoms =
  let module Vs = Set.Make (struct
      type t = Value.t

      let compare = Value.compare
    end)
  in
  let acc = ref Vs.empty in
  (match atoms with
   | [] -> ()
   | (a : Cq.atom) :: _ ->
     List.iter
       (fun (s : Database.stored) ->
          Array.iteri
            (fun i t ->
               match t with
               | Cq.V y when y = x -> acc := Vs.add s.values.(i) !acc
               | _ -> ())
            a.args)
       (Database.tuples db a.rel));
  Vs.elements !acc

let rec plan db atoms =
  let ground, open_atoms = List.partition is_ground atoms in
  let ground_circuits = List.map (ground_leaf db) ground in
  let rest =
    match components open_atoms with
    | [] -> []
    | [ (_, members) ] -> [ plan_connected db members ]
    | groups -> List.map (fun (_, members) -> plan_connected db members) groups
  in
  (* SJF guarantees the parts use disjoint lineage variables. *)
  Circuit.cand (ground_circuits @ rest)

and plan_connected db atoms =
  match root_variable atoms with
  | None ->
    raise
      (Not_safe
         "connected subquery without a root variable (query not hierarchical)")
  | Some x ->
    let branches =
      List.map
        (fun v -> plan db (List.map (subst_atom x v) atoms))
        (candidate_values db x atoms)
    in
    (* Different values of x touch disjoint sets of tuples (each tuple
       fixes the value in x's position), hence disjoint lineage vars. *)
    Circuit.cor_disj branches

let lineage_circuit db q =
  Cq.check_against q db;
  if not (Cq.is_positive q) then
    raise (Not_safe "query has negated atoms");
  if not (Cq.is_self_join_free q) then
    raise (Not_safe "query has self-joins");
  if not (Cq.is_hierarchical q) then raise (Not_safe "query not hierarchical");
  plan db q.Cq.atoms

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

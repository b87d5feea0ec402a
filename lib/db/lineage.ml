(* Unify an atom against a stored tuple under a partial assignment. *)
let matches env (a : Cq.atom) (s : Database.stored) =
  let bind acc i =
    match acc with
    | None -> None
    | Some env ->
      (match a.args.(i) with
       | Cq.C v -> if Value.equal v s.values.(i) then Some env else None
       | Cq.V x ->
         (match List.assoc_opt x env with
          | Some v -> if Value.equal v s.values.(i) then Some env else None
          | None -> Some ((x, s.values.(i)) :: env)))
  in
  let rec go acc i =
    if i >= Array.length a.args then acc else go (bind acc i) (i + 1)
  in
  go (Some env) 0

(* The backtracking join: atoms left to right, each against its
   relation's rows (read once, in insertion order), extending a partial
   assignment of the query variables.  Each satisfying assignment, in
   that search order, calls [leaf acc env rows]: [env] binds every
   variable (most recent binding first) and [rows] holds the matched
   tuples in atom order.  Atoms match positively, whatever their
   [negated] flag. *)
let fold db atoms ~init ~leaf =
  let scans =
    List.map (fun (a : Cq.atom) -> (a, Database.tuples db a.rel)) atoms
  in
  let rec search acc env rows = function
    | [] -> leaf acc env (List.rev rows)
    | (a, tuples) :: rest ->
      List.fold_left
        (fun acc s ->
           match matches env a s with
           | None -> acc
           | Some env' -> search acc env' (s :: rows) rest)
        acc tuples
  in
  search init [] [] scans

(* Ground a negated atom under a full assignment and report its effect:
   [None] kills the assignment (present exogenous tuple), [Some None] is
   vacuous (absent tuple), [Some (Some v)] contributes literal ¬v. *)
let negated_effect db env (a : Cq.atom) =
  let values =
    Array.map
      (function
        | Cq.C v -> v
        | Cq.V x ->
          (match List.assoc_opt x env with
           | Some v -> v
           | None ->
             invalid_arg
               "Lineage: unsafe negation (variable not bound positively)"))
      a.args
  in
  match Database.find_tuple db a.rel values with
  | None -> Some None
  | Some { Database.lvar = None; _ } -> None
  | Some { Database.lvar = Some v; _ } -> Some (Some v)

let lineage_clauses db q =
  Cq.check_against q db;
  let positive, negated =
    List.partition (fun (a : Cq.atom) -> not a.Cq.negated) q.Cq.atoms
  in
  if positive = [] then invalid_arg "Lineage: no positive atoms";
  let leaf out env rows =
    let used =
      List.fold_left
        (fun used (s : Database.stored) ->
           match s.lvar with Some v -> Vset.add v used | None -> used)
        Vset.empty rows
    in
    (* extend the clause with the negated atoms' literals *)
    let rec extend neg = function
      | [] ->
        if Vset.disjoint used neg then { Nf.pos = used; Nf.neg } :: out
        else out
      | a :: rest ->
        (match negated_effect db env a with
         | None -> out (* exogenous blocker: assignment dies *)
         | Some None -> extend neg rest
         | Some (Some v) -> extend (Vset.add v neg) rest)
    in
    extend Vset.empty negated
  in
  (* dedupe and sort by the positive, then the negative literals *)
  List.sort_uniq
    (fun (a : Nf.clause) (b : Nf.clause) ->
       match Vset.compare a.pos b.pos with
       | 0 -> Vset.compare a.neg b.neg
       | c -> c)
    (fold db positive ~init:[] ~leaf)

let lineage db q =
  if not (Cq.is_positive q) then
    invalid_arg "Lineage.lineage: query has negated atoms";
  List.map (fun (c : Nf.clause) -> c.Nf.pos) (lineage_clauses db q)

let lineage_formula db q = Nf.dnf_to_formula (lineage_clauses db q)

let boolean_answer db q =
  Formula.eval (fun _ -> true) (lineage_formula db q)

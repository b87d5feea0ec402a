type stats = { decisions : int; propagations : int; cache_hits : int }

(* Clauses as literal-set pairs; the exception signals an empty clause
   (current branch unsatisfiable). *)
exception Conflict

(* Condition a clause set on literal (v, sign): drop satisfied clauses,
   shrink falsified literals.  Raises [Conflict] on an empty clause. *)
let condition clauses v sign =
  List.filter_map
    (fun (c : Nf.clause) ->
       let sat = if sign then Vset.mem v c.Nf.pos else Vset.mem v c.Nf.neg in
       if sat then None
       else begin
         let c' =
           if sign then { c with Nf.neg = Vset.remove v c.Nf.neg }
           else { c with Nf.pos = Vset.remove v c.Nf.pos }
         in
         if Vset.is_empty c'.Nf.pos && Vset.is_empty c'.Nf.neg then
           raise Conflict;
         Some c'
       end)
    clauses

let clause_vars (c : Nf.clause) = Vset.union c.Nf.pos c.Nf.neg

let find_unit clauses =
  List.find_map
    (fun (c : Nf.clause) ->
       match (Vset.cardinal c.Nf.pos, Vset.cardinal c.Nf.neg) with
       | 1, 0 -> Some (Vset.min_elt c.Nf.pos, true)
       | 0, 1 -> Some (Vset.min_elt c.Nf.neg, false)
       | _ -> None)
    clauses

(* Most frequent variable, for branching. *)
let pick_var clauses =
  let occ = Hashtbl.create 32 in
  List.iter
    (fun c ->
       Vset.iter
         (fun v ->
            Hashtbl.replace occ v
              (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
         (clause_vars c))
    clauses;
  let best = ref None in
  Hashtbl.iter
    (fun v c ->
       match !best with
       | Some (_, c') when c' >= c -> ()
       | _ -> best := Some (v, c))
    occ;
  match !best with Some (v, _) -> v | None -> assert false

(* Canonical cache key: sorted clauses as literal lists. *)
let key clauses =
  List.sort compare
    (List.map
       (fun (c : Nf.clause) ->
          (Vset.elements c.Nf.pos, Vset.elements c.Nf.neg))
       clauses)

type state = {
  cache : ((int list * int list) list, Circuit.node) Hashtbl.t;
  mutable decisions : int;
  mutable propagations : int;
  mutable cache_hits : int;
}

let literal v sign =
  if sign then Circuit.cvar v else Circuit.cnot (Circuit.cvar v)

let rec go st clauses =
  match clauses with
  | [] -> Circuit.ctrue
  | _ ->
    let k = key clauses in
    (match Hashtbl.find_opt st.cache k with
     | Some c ->
       st.cache_hits <- st.cache_hits + 1;
       c
     | None ->
       let c = go_uncached st clauses in
       Hashtbl.replace st.cache k c;
       c)

and go_uncached st clauses =
  match find_unit clauses with
  | Some (v, sign) ->
    (* unit propagation: the literal is a decomposable factor *)
    st.propagations <- st.propagations + 1;
    (try Circuit.cand [ literal v sign; go st (condition clauses v sign) ]
     with Conflict -> Circuit.cfalse)
  | None ->
    (match Vset.components ~vars:clause_vars clauses with
     | [] -> Circuit.ctrue
     | [ _ ] ->
       (* branch on a most frequent variable *)
       let v = pick_var clauses in
       st.decisions <- st.decisions + 1;
       let branch sign =
         try Circuit.cand [ literal v sign; go st (condition clauses v sign) ]
         with Conflict -> Circuit.cfalse
       in
       Circuit.cor_det [ branch false; branch true ]
     | groups ->
       Circuit.cand (List.map (fun (_, cs) -> go st cs) groups))

let compile_with_stats cnf =
  let st =
    { cache = Hashtbl.create 256; decisions = 0; propagations = 0;
      cache_hits = 0 }
  in
  (* drop tautological clauses up front *)
  let cnf =
    List.filter
      (fun (c : Nf.clause) -> Vset.disjoint c.Nf.pos c.Nf.neg)
      cnf
  in
  let circuit =
    if List.exists
        (fun (c : Nf.clause) ->
           Vset.is_empty c.Nf.pos && Vset.is_empty c.Nf.neg)
        cnf
    then Circuit.cfalse
    else go st cnf
  in
  (circuit,
   { decisions = st.decisions; propagations = st.propagations;
     cache_hits = st.cache_hits })

let compile cnf = fst (compile_with_stats cnf)
let compile_dimacs (inst : Dimacs.instance) = compile inst.Dimacs.clauses

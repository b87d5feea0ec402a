type stats = { branches : int; cache_hits : int }

type 'a algebra = {
  const : bool -> 'a;
  var : int -> 'a;
  not_ : 'a -> 'a;
  conj : 'a list -> 'a;
  disj : 'a list -> 'a;
  shannon : int -> scope:Vset.t -> 'a -> 'a -> 'a;
}

(* Branching heuristic: a variable with the most occurrences. *)
let pick_var f =
  let occ = Hashtbl.create 16 in
  let bump v =
    Hashtbl.replace occ v (1 + Option.value ~default:0 (Hashtbl.find_opt occ v))
  in
  let rec go = function
    | Formula.True | Formula.False -> ()
    | Formula.Var v -> bump v
    | Formula.Not g -> go g
    | Formula.And gs | Formula.Or gs -> List.iter go gs
  in
  go f;
  let best = ref None in
  Hashtbl.iter
    (fun v c ->
       match !best with
       | Some (_, c') when c' >= c -> ()
       | _ -> best := Some (v, c))
    occ;
  match !best with Some (v, _) -> v | None -> invalid_arg "Dpll: no variable"

let search alg f =
  let cache = Hashtbl.create 256 in
  let branches = ref 0 and cache_hits = ref 0 in
  let rec go f =
    match f with
    | Formula.True -> alg.const true
    | Formula.False -> alg.const false
    | Formula.Var x -> alg.var x
    | Formula.Not g -> alg.not_ (go g)
    | Formula.And fs | Formula.Or fs ->
      (match Hashtbl.find_opt cache f with
       | Some r ->
         incr cache_hits;
         r
       | None ->
         let r = compound f fs in
         Hashtbl.replace cache f r;
         r)
  and compound f fs =
    match Vset.components ~vars:Formula.vars fs with
    | [ (scope, _) ] ->
      (* Single component: Shannon-expand on a most-frequent variable. *)
      let x = pick_var f in
      incr branches;
      let lo = go (Formula.restrict x false f) in
      let hi = go (Formula.restrict x true f) in
      alg.shannon x ~scope lo hi
    | groups ->
      (* Each part spans its group's scope, as [kvec] needs: members are
         nonconstant and mutually non-absorbing after smart construction,
         so [and_]/[or_] drop no variable. *)
      (match f with
       | Formula.And _ ->
         alg.conj (List.map (fun (_, ms) -> go (Formula.and_ ms)) groups)
       | _ -> alg.disj (List.map (fun (_, ms) -> go (Formula.or_ ms)) groups))
  in
  let r = go (Formula.simplify f) in
  (r, { branches = !branches; cache_hits = !cache_hits })

(* Every value is the count vector over exactly [vars] of its formula, so
   a cofactor's universe size says how far to pad it to the scope. *)
let kvec =
  { const = (fun b -> (if b then Kvec.const_true else Kvec.const_false) ~n:0);
    var = (fun _ -> Kvec.singleton_true);
    not_ = Kvec.complement;
    conj = Kvec.conv_list;
    (* all − Π non-models *)
    disj =
      (fun parts ->
         Kvec.complement (Kvec.conv_list (List.map Kvec.complement parts)));
    shannon =
      (fun _ ~scope lo hi ->
         let n = Vset.cardinal scope in
         let branch kv pol =
           Kvec.with_var (Kvec.extend kv ~extra:(n - 1 - Kvec.universe_size kv))
             ~pol
         in
         Kvec.add (branch lo false) (branch hi true)) }

let count_by_size f =
  let v, st = search kvec f in
  if Obs.enabled () then begin
    Obs.incr "dpll.counts";
    Obs.add "dpll.branches" st.branches;
    Obs.add "dpll.cache_hits" st.cache_hits
  end;
  v

let count f = Kvec.total (count_by_size f)

let check_universe ~vars f =
  let universe = Vset.of_list vars in
  if not (Vset.subset (Formula.vars f) universe) then
    invalid_arg "Dpll: universe misses variables of the formula";
  List.length vars

let count_by_size_universe ~vars f =
  let n = check_universe ~vars f in
  let base = count_by_size f in
  Kvec.extend base ~extra:(n - Kvec.universe_size base)

let count_universe ~vars f = Kvec.total (count_by_size_universe ~vars f)

let count_with_stats f =
  let v, stats = search kvec f in
  (Kvec.total v, stats)

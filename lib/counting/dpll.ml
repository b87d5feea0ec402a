type stats = { branches : int; propagations : int; cache_hits : int }

type 'a algebra = {
  const : bool -> 'a;
  var : int -> 'a;
  not_ : 'a -> 'a;
  conj : 'a list -> 'a;
  disj : 'a list -> 'a;
  decide : 'a -> scope:Vset.t -> 'a -> 'a -> 'a;
}

(* The connective of the nodes a variable is a leaf of: [Neither] once a
   leaf sits under a [Not] or under both connectives. *)
type role = Conj | Disj | Neither

(* What the occurrence pass learns of one variable: its occurrences, its
   role, and the nodes it is a leaf of, as preorder numbers in visiting
   order (a repeat right after itself dropped). *)
type occ = { mutable count : int; mutable role : role; mutable nodes : int list }

(* The branching block: a variable [x] with the most occurrences, plus
   its twins, the variables with [x]'s role and [x]'s list of nodes.
   Those are leaves of exactly [x]'s nodes, all of one connective, and
   occur nowhere else.  Equal lists find every twin when the block's
   leaves sit side by side in each node, as substitution places them; a
   twin missed otherwise leaves a smaller block, as sound a decision.
   Returns the block in increasing order and whether its nodes are
   conjunctions. *)
let pick_block f =
  let occ = Hashtbl.create 16 in
  let leaf role node v =
    match Hashtbl.find_opt occ v with
    | None -> Hashtbl.add occ v { count = 1; role; nodes = [ node ] }
    | Some o ->
      o.count <- o.count + 1;
      if o.role <> role then o.role <- Neither;
      (match o.nodes with
       | n :: _ when n = node -> ()
       | ns -> o.nodes <- node :: ns)
  in
  let next = ref 0 in
  let rec go role node f =
    match Formula.view f with
    | Formula.True | Formula.False -> ()
    | Formula.Var v -> leaf role node v
    | Formula.Not g -> go Neither node g
    | Formula.And gs ->
      incr next;
      List.iter (go Conj !next) gs
    | Formula.Or gs ->
      incr next;
      List.iter (go Disj !next) gs
  in
  go Neither 0 f;
  let best = ref None in
  Hashtbl.iter
    (fun v o ->
       match !best with
       | Some (_, o') when o'.count >= o.count -> ()
       | _ -> best := Some (v, o))
    occ;
  match !best with
  | None -> invalid_arg "Dpll: no variable"
  | Some (x, ox) when ox.role = Neither -> ([ x ], false)
  | Some (x, ox) ->
    let twins =
      Hashtbl.fold
        (fun y o acc ->
           if y <> x && o.role = ox.role && List.equal Int.equal o.nodes ox.nodes
           then y :: acc
           else acc)
        occ []
    in
    (List.sort Int.compare (x :: twins), ox.role = Conj)

(* Unit propagation: fixes the literals among [f]'s conjuncts (its
   children if it is an [∧], else [f]), then those of what is left, until
   none is; of [x ∧ ¬x] either is kept.  Returns bindings and residue. *)
let rec propagate fixed f =
  let units =
    List.filter_map
      (fun g ->
        match Formula.view g with
        | Formula.Var x -> Some (x, true)
        | Formula.Not g ->
          (match Formula.view g with Formula.Var x -> Some (x, false) | _ -> None)
        | _ -> None)
      (match Formula.view f with Formula.And fs -> fs | _ -> [ f ])
  in
  match List.sort_uniq (fun (x, _) (y, _) -> compare x y) units with
  | [] -> (fixed, f)
  | us -> propagate (us @ fixed) (Formula.restrict_set us f)

module Memo = Hashtbl.Make (Formula)

let search alg f =
  let cache = Memo.create 256 in
  let branches = ref 0 and propagations = ref 0 and cache_hits = ref 0 in
  let rec go f =
    match Formula.view f with
    | Formula.True -> alg.const true
    | Formula.False -> alg.const false
    | Formula.Var x -> alg.var x
    | Formula.Not g -> alg.not_ (go g)
    | Formula.And fs | Formula.Or fs ->
      (match Memo.find_opt cache f with
       | Some r ->
         incr cache_hits;
         r
       | None ->
         let r = compound f fs in
         Memo.replace cache f r;
         r)
  and compound f fs =
    match Vset.components ~vars:Formula.vars fs with
    | [ (scope, _) ] ->
      (match propagate [] f with
       | [], _ -> decide scope f
       | fixed, rest ->
         (* Unit rule: F = L ∧ F[L:=1] for the conjunction L of the
            literals propagation fixes, so F[L:=0] is false and only
            F[L:=1] is searched. *)
         propagations := !propagations + List.length fixed;
         let lit (x, sign) = if sign then alg.var x else alg.not_ (alg.var x) in
         alg.decide (alg.conj (List.map lit fixed)) ~scope (alg.const false)
           (go rest))
    | groups ->
      (* Each part spans its group's scope, as [kvec] needs: members are
         nonconstant and mutually non-absorbing after smart construction,
         so [and_]/[or_] drop no variable. *)
      (match Formula.view f with
       | Formula.And _ ->
         alg.conj (List.map (fun (_, ms) -> go (Formula.and_ ms)) groups)
       | _ -> alg.disj (List.map (fun (_, ms) -> go (Formula.or_ ms)) groups))
  and decide scope f =
    (* A connected node without units: decide on the block B, the
       disjunction (or conjunction) of the branch variable and its twins.
       F depends on them only through B; fixing any one of them fixes B
       one way, fixing all of them the other. *)
    let block, conj = pick_block f in
    let one = [ List.hd block ] in
    let fix vs b = Formula.restrict_set (List.map (fun v -> (v, b)) vs) f in
    incr branches;
    let lo = go (fix (if conj then one else block) false) in
    let hi = go (fix (if conj then block else one) true) in
    let vs = List.map Formula.var block in
    let b = go (if conj then Formula.and_ vs else Formula.or_ vs) in
    alg.decide b ~scope lo hi
  in
  let r = go (Formula.simplify f) in
  (r,
   { branches = !branches; propagations = !propagations;
     cache_hits = !cache_hits })

(* Every value is the count vector over exactly [vars] of its formula, so
   a cofactor's universe size says how far to pad it to the scope left
   beside the block. *)
let kvec =
  { const = (fun b -> (if b then Kvec.const_true else Kvec.const_false) ~n:0);
    var = (fun _ -> Kvec.singleton_true);
    not_ = Kvec.complement;
    conj = Kvec.conv_list;
    (* all − Π non-models *)
    disj =
      (fun parts ->
         Kvec.complement (Kvec.conv_list (List.map Kvec.complement parts)));
    decide =
      (fun b ~scope lo hi ->
         let rest = Vset.cardinal scope - Kvec.universe_size b in
         let pad kv = Kvec.extend kv ~extra:(rest - Kvec.universe_size kv) in
         Kvec.add
           (Kvec.conv (Kvec.complement b) (pad lo))
           (Kvec.conv b (pad hi))) }

let count_by_size f =
  let v, st = search kvec f in
  if Obs.observing () then begin
    Obs.incr "dpll.counts";
    Obs.add "dpll.branches" st.branches;
    if st.propagations > 0 then Obs.add "dpll.propagations" st.propagations;
    Obs.add "dpll.cache_hits" st.cache_hits
  end;
  v

let count f = Kvec.total (count_by_size f)

let count_by_size_universe ~vars f =
  let n =
    Vset.cardinal
      (Vset.universe ~who:"Dpll" ~noun:"variables of the formula" ~vars
         (Formula.vars f))
  in
  let base = count_by_size f in
  Kvec.extend base ~extra:(n - Kvec.universe_size base)

let count_universe ~vars f = Kvec.total (count_by_size_universe ~vars f)

let count_with_stats f =
  let v, stats = search kvec f in
  (Kvec.total v, stats)

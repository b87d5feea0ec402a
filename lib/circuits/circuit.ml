type or_kind = Deterministic | Disjoint

type gate =
  | Ctrue
  | Cfalse
  | Cvar of int
  | Cnot of node
  | Cand of node list
  | Cor of or_kind * node list

and node = { id : int; gate : gate; vars : Vset.t }

(* Hash-consing: gates are keyed by constructor + child ids, so structurally
   equal gates share a node and [id] equality is semantic equality for
   nodes built through this module. *)
type key =
  | Ktrue
  | Kfalse
  | Kvar of int
  | Knot of int
  | Kand of int list
  | Kor of or_kind * int list

let table : (key, node) Hashtbl.t = Hashtbl.create 1024
let next_id = ref 0

(* The hash-cons table is process-global, so [intern] must be safe under
   the [--jobs] parallel fan-out: the lookup-or-insert is atomic under
   [lock].  Node IDS may then depend on domain scheduling (two domains
   interning fresh gates race for [next_id]), but node IDENTITY does not:
   structurally equal gates still share one node, children keys are
   id-sorted per call, and everything downstream (counting, Shapley
   arithmetic) is exact bigint/rational math over gate STRUCTURE — so
   all results are scheduling-independent even though ids are not. *)
let lock = Mutex.create ()

(* The node of [key]; on a miss, [make id] builds it, and may raise. *)
let intern key make =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some n -> n
      | None ->
        let n = make !next_id in
        incr next_id;
        Hashtbl.replace table key n;
        n)

let ctrue = intern Ktrue (fun id -> { id; gate = Ctrue; vars = Vset.empty })
let cfalse = intern Kfalse (fun id -> { id; gate = Cfalse; vars = Vset.empty })
let cbool b = if b then ctrue else cfalse
let cvar v = intern (Kvar v) (fun id -> { id; gate = Cvar v; vars = Vset.singleton v })

let cnot g =
  match g.gate with
  | Ctrue -> cfalse
  | Cfalse -> ctrue
  | Cnot h -> h
  | _ -> intern (Knot g.id) (fun id -> { id; gate = Cnot g; vars = g.vars })

let union_vars gs =
  List.fold_left (fun acc g -> Vset.union acc g.vars) Vset.empty gs

let check_pairwise_disjoint ~what gs =
  let rec go seen = function
    | [] -> ()
    | g :: rest ->
      if not (Vset.disjoint seen g.vars) then
        invalid_arg (Printf.sprintf "Circuit.%s: children share variables" what);
      go (Vset.union seen g.vars) rest
  in
  go Vset.empty gs

let is_true g = match g.gate with Ctrue -> true | _ -> false
let is_false g = match g.gate with Cfalse -> true | _ -> false

(* Children are dedup-sorted by id so that hash-consing is insensitive to
   argument order (∧ and ∨ are commutative). *)
let children ~drop gs =
  List.sort_uniq
    (fun a b -> Int.compare a.id b.id)
    (List.filter (fun g -> not (drop g)) gs)

let ids gs = List.map (fun g -> g.id) gs

(* The key is looked up first: a hit has the children of a gate that
   passed the check, so only a miss checks them and unions their
   scopes. *)
let cand gs =
  if List.exists is_false gs then cfalse
  else
    match children ~drop:is_true gs with
    | [] -> ctrue
    | [ g ] -> g
    | gs ->
      intern (Kand (ids gs)) (fun id ->
          check_pairwise_disjoint ~what:"cand" gs;
          { id; gate = Cand gs; vars = union_vars gs })

(* For a deterministic ∨, a [Ctrue] child forces every other child to be
   unsatisfiable, so the gate is equivalent to true. *)
let cor kind gs =
  if List.exists is_true gs then ctrue
  else
    match children ~drop:is_false gs with
    | [] -> cfalse
    | [ g ] -> g
    | gs ->
      intern (Kor (kind, ids gs)) (fun id ->
          (match kind with
           | Disjoint -> check_pairwise_disjoint ~what:"cor_disj" gs
           | Deterministic -> ());
          { id; gate = Cor (kind, gs); vars = union_vars gs })

let cor_det gs = cor Deterministic gs
let cor_disj gs = cor Disjoint gs

let vars g = g.vars

let fold f init root =
  let seen = Hashtbl.create 64 in
  let acc = ref init in
  let rec go g =
    if not (Hashtbl.mem seen g.id) then begin
      Hashtbl.replace seen g.id ();
      (match g.gate with
       | Ctrue | Cfalse | Cvar _ -> ()
       | Cnot h -> go h
       | Cand gs | Cor (_, gs) -> List.iter go gs);
      acc := f !acc g
    end
  in
  go root;
  !acc

let memo f =
  let table = Hashtbl.create 64 in
  let rec self g =
    match Hashtbl.find_opt table g.id with
    | Some v -> v
    | None ->
      let v = f self g in
      Hashtbl.replace table g.id v;
      v
  in
  self

let size g = fold (fun n _ -> n + 1) 0 g

let edge_count g =
  fold
    (fun n node ->
       match node.gate with
       | Ctrue | Cfalse | Cvar _ -> n
       | Cnot _ -> n + 1
       | Cand gs | Cor (_, gs) -> n + List.length gs)
    0 g

let eval env =
  memo (fun self g ->
      match g.gate with
      | Ctrue -> true
      | Cfalse -> false
      | Cvar v -> env v
      | Cnot h -> not (self h)
      | Cand gs -> List.for_all self gs
      | Cor (_, gs) -> List.exists self gs)

let eval_set s g = eval (fun v -> Vset.mem v s) g

let rec to_formula g =
  match g.gate with
  | Ctrue -> Formula.tru
  | Cfalse -> Formula.fls
  | Cvar v -> Formula.var v
  | Cnot h -> Formula.not_ (to_formula h)
  | Cand gs -> Formula.and_ (List.map to_formula gs)
  | Cor (_, gs) -> Formula.or_ (List.map to_formula gs)

let check_deterministic ~max_vars root =
  let ok = ref true in
  let check_gate g =
    match g.gate with
    | Cor (Deterministic, gs) ->
      let vs = Array.of_list (Vset.elements g.vars) in
      if Array.length vs > max_vars then
        invalid_arg "Circuit.check_deterministic: gate scope too large";
      for mask = 0 to (1 lsl Array.length vs) - 1 do
        let env v =
          let rec idx i = if vs.(i) = v then i else idx (i + 1) in
          mask land (1 lsl idx 0) <> 0
        in
        let sat = List.filter (fun child -> eval env child) gs in
        if List.length sat > 1 then ok := false
      done
    | _ -> ()
  in
  fold (fun () g -> check_gate g) () root;
  !ok

let equivalent_formula ~max_vars g f =
  let universe = Vset.union g.vars (Formula.vars f) in
  let vs = Array.of_list (Vset.elements universe) in
  let n = Array.length vs in
  if n > max_vars then
    invalid_arg "Circuit.equivalent_formula: too many variables";
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let s = ref Vset.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then s := Vset.add vs.(i) !s
    done;
    if eval_set !s g <> Formula.eval_set !s f then ok := false
  done;
  !ok

let pp_with ~var ppf g =
  let rec pp ppf g =
    match g.gate with
    | Ctrue -> Format.pp_print_string ppf "1"
    | Cfalse -> Format.pp_print_string ppf "0"
    | Cvar v -> Format.pp_print_string ppf (var v)
    | Cnot h -> Format.fprintf ppf "!%a" pp h
    | Cand gs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
           pp)
        gs
    | Cor (k, gs) ->
      let sep = match k with Deterministic -> " |d " | Disjoint -> " |x " in
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "%s" sep)
           pp)
        gs
  in
  pp ppf g

let pp ppf g = pp_with ~var:(Printf.sprintf "x%d") ppf g

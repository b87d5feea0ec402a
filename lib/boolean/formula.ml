type view =
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

and t = { view : view; vars : Vset.t; hash : int; normal : bool }

let view f = f.view
let vars f = f.vars
let hash f = f.hash

(* Order-sensitive, as the memo needs: [x1 & x2] and [x2 & x1] differ. *)
let node ~normal view =
  let union fs = List.fold_left (fun acc f -> Vset.union acc f.vars) Vset.empty fs in
  let mix seed fs = List.fold_left (fun h f -> (h * 31) + f.hash) seed fs in
  match view with
  | True -> { view; vars = Vset.empty; hash = 1; normal }
  | False -> { view; vars = Vset.empty; hash = 2; normal }
  | Var v -> { view; vars = Vset.singleton v; hash = (v * 8) + 3; normal }
  | Not f -> { view; vars = f.vars; hash = (f.hash * 31) + 5; normal }
  | And fs -> { view; vars = union fs; hash = mix 7 fs; normal }
  | Or fs -> { view; vars = union fs; hash = mix 11 fs; normal }

let make view = node ~normal:false view
let tru = node ~normal:true True
let fls = node ~normal:true False
let var v = node ~normal:true (Var v)
let of_bool b = if b then tru else fls

let not_ f =
  match f.view with
  | True -> fls
  | False -> tru
  | Not g -> g
  | _ -> node ~normal:f.normal (Not f)

exception Absorbed

(* Flatten nested same-connective nodes and apply the constant laws: the
   conjunction absorbs [False] and drops [True], the disjunction dually.
   Children that are neither constants nor of the node's connective are
   kept as given.  The node is normal when its kept children are, and
   none of them is of its own connective (a raw child's children are
   flattened one level only, as [simplify] would flatten them again). *)
let nary ~conj fs =
  let same f = match f.view with And _ -> conj | Or _ -> not conj | _ -> false in
  let plain f = match f.view with True | False -> false | _ -> not (same f) in
  let flatten f =
    match f.view with (And gs | Or gs) when same f -> gs | _ -> [ f ]
  in
  let keep f =
    match f.view with
    | True -> if conj then false else raise Absorbed
    | False -> if conj then raise Absorbed else false
    | _ -> true
  in
  match
    if List.for_all plain fs then fs
    else List.filter keep (List.concat_map flatten fs)
  with
  | [] -> of_bool conj
  | [ f ] -> f
  | fs ->
    let normal = List.for_all (fun f -> f.normal && not (same f)) fs in
    node ~normal (if conj then And fs else Or fs)
  | exception Absorbed -> of_bool (not conj)

let and_ fs = nary ~conj:true fs
let or_ fs = nary ~conj:false fs
let conj2 a b = and_ [ a; b ]
let disj2 a b = or_ [ a; b ]

let rec size f =
  match f.view with
  | True | False | Var _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs ->
    let n = List.length fs in
    Stdlib.max 0 (n - 1) + List.fold_left (fun acc f -> acc + size f) 0 fs

let rec eval env f =
  match f.view with
  | True -> true
  | False -> false
  | Var v -> env v
  | Not f -> not (eval env f)
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs

let eval_set s f = eval (fun v -> Vset.mem v s) f

(* Structure and hash: the cached sets follow from the structure. *)
let rec equal a b =
  a == b
  || a.hash = b.hash
     &&
     match (a.view, b.view) with
     | True, True | False, False -> true
     | Var x, Var y -> x = y
     | Not x, Not y -> equal x y
     | And xs, And ys | Or xs, Or ys -> List.equal equal xs ys
     | _ -> false

(* The order [Stdlib.compare] gave the plain tree. *)
let rec compare a b =
  let tag f =
    match f.view with True -> 0 | False -> 1 | Var _ -> 2 | Not _ -> 3 | And _ -> 4 | Or _ -> 5
  in
  if a == b then 0
  else
    match (a.view, b.view) with
    | Var x, Var y -> Int.compare x y
    | Not x, Not y -> compare x y
    | And xs, And ys | Or xs, Or ys -> List.compare compare xs ys
    | _ -> Int.compare (tag a) (tag b)

let rec map_var h f =
  match f.view with
  | True -> tru
  | False -> fls
  | Var v -> h v
  | Not f -> not_ (map_var h f)
  | And fs -> and_ (List.map (map_var h) fs)
  | Or fs -> or_ (List.map (map_var h) fs)

let rename h f = map_var (fun v -> var (h v)) f

(* [restrict_set]'s two lookups, as plain loops: no closure per node and
   no polymorphic [compare] per binding. *)
let rec binds vars = function
  | [] -> false
  | (v, _) :: rest -> Vset.mem v vars || binds vars rest

let rec image u = function
  | [] -> var u
  | (v, b) :: rest -> if v = u then of_bool b else image u rest

(* A normal node whose variables miss the bindings is its own image:
   [map_var] would rebuild it as it is. *)
let restrict_set bindings f =
  let rec go f =
    if f.normal && not (binds f.vars bindings) then f
    else
      match f.view with
      | True -> tru
      | False -> fls
      | Var u -> image u bindings
      | Not g -> not_ (go g)
      | And fs -> and_ (List.map go fs)
      | Or fs -> or_ (List.map go fs)
  in
  go f

let restrict v b f = restrict_set [ (v, b) ] f
let simplify f = restrict_set [] f

let pp_with ~var ppf f =
  let rec pp ppf f =
    match f.view with
    | True -> Format.pp_print_string ppf "1"
    | False -> Format.pp_print_string ppf "0"
    | Var v -> Format.pp_print_string ppf (var v)
    | Not f -> Format.fprintf ppf "!%a" pp_atom f
    | And fs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
        pp_atom ppf fs
    | Or fs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
        pp_or_arg ppf fs
  (* Arguments of [&] and [!] need parentheses around [|] (and [&] under [!]). *)
  and pp_atom ppf f =
    match f.view with And _ | Or _ -> Format.fprintf ppf "(%a)" pp f | _ -> pp ppf f
  and pp_or_arg ppf f =
    match f.view with Or _ -> Format.fprintf ppf "(%a)" pp f | _ -> pp ppf f
  in
  pp ppf f

let pp ppf f = pp_with ~var:(Printf.sprintf "x%d") ppf f
let to_string f = Format.asprintf "%a" pp f

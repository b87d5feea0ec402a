type node = { id : int; desc : desc }
and desc = Leaf of bool | Node of { v : int; lo : node; hi : node }

type manager = {
  level : (int, int) Hashtbl.t; (* variable -> position in order *)
  unique : (int * int * int, node) Hashtbl.t;
  not_memo : (int, node) Hashtbl.t;
  and_memo : (int * int, node) Hashtbl.t;
  or_memo : (int * int, node) Hashtbl.t;
  xor_memo : (int * int, node) Hashtbl.t;
  mutable next_id : int;
  t_leaf : node;
  f_leaf : node;
}

let create_manager ~order =
  let level = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
       if Hashtbl.mem level v then
         invalid_arg "Obdd.create_manager: duplicate variable";
       Hashtbl.replace level v i)
    order;
  {
    level;
    unique = Hashtbl.create 1024;
    not_memo = Hashtbl.create 256;
    and_memo = Hashtbl.create 1024;
    or_memo = Hashtbl.create 1024;
    xor_memo = Hashtbl.create 256;
    next_id = 2;
    t_leaf = { id = 1; desc = Leaf true };
    f_leaf = { id = 0; desc = Leaf false };
  }

let leaf_true m = m.t_leaf
let leaf_false m = m.f_leaf

let level_of m t =
  match t.desc with
  | Leaf _ -> max_int
  | Node { v; _ } -> Hashtbl.find m.level v

let var_level m v =
  match Hashtbl.find_opt m.level v with
  | Some l -> l
  | None -> invalid_arg "Obdd: variable not in manager order"

(* Reduced, hash-consed node constructor. *)
let mk m v lo hi =
  if lo == hi then lo
  else begin
    let key = (v, lo.id, hi.id) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
      let n = { id = m.next_id; desc = Node { v; lo; hi } } in
      m.next_id <- m.next_id + 1;
      Hashtbl.replace m.unique key n;
      n
  end

let var m v =
  let _ = var_level m v in
  mk m v m.f_leaf m.t_leaf

let rec neg m t =
  match t.desc with
  | Leaf b -> if b then m.f_leaf else m.t_leaf
  | Node { v; lo; hi } ->
    (match Hashtbl.find_opt m.not_memo t.id with
     | Some n -> n
     | None ->
       let n = mk m v (neg m lo) (neg m hi) in
       Hashtbl.replace m.not_memo t.id n;
       n)

(* Generic binary apply with the usual top-variable split. *)
let apply m memo terminal =
  let rec go a b =
    match terminal a b with
    | Some r -> r
    | None ->
      let key = (a.id, b.id) in
      (match Hashtbl.find_opt memo key with
       | Some n -> n
       | None ->
         let la = level_of m a and lb = level_of m b in
         let v, (alo, ahi), (blo, bhi) =
           if la < lb then
             match a.desc with
             | Node { v; lo; hi } -> (v, (lo, hi), (b, b))
             | Leaf _ -> assert false
           else if lb < la then
             match b.desc with
             | Node { v; lo; hi } -> (v, (a, a), (lo, hi))
             | Leaf _ -> assert false
           else
             match (a.desc, b.desc) with
             | Node { v; lo; hi }, Node { lo = lo'; hi = hi'; _ } ->
               (v, (lo, hi), (lo', hi'))
             | _ -> assert false
         in
         let n = mk m v (go alo blo) (go ahi bhi) in
         Hashtbl.replace memo key n;
         n)
  in
  go

let conj m a b =
  apply m m.and_memo
    (fun a b ->
       match (a.desc, b.desc) with
       | Leaf false, _ | _, Leaf false -> Some m.f_leaf
       | Leaf true, _ -> Some b
       | _, Leaf true -> Some a
       | _ when a == b -> Some a
       | _ -> None)
    a b

let disj m a b =
  apply m m.or_memo
    (fun a b ->
       match (a.desc, b.desc) with
       | Leaf true, _ | _, Leaf true -> Some m.t_leaf
       | Leaf false, _ -> Some b
       | _, Leaf false -> Some a
       | _ when a == b -> Some a
       | _ -> None)
    a b

let xor m a b =
  apply m m.xor_memo
    (fun a b ->
       match (a.desc, b.desc) with
       | Leaf x, Leaf y -> Some (if x <> y then m.t_leaf else m.f_leaf)
       | Leaf false, _ -> Some b
       | _, Leaf false -> Some a
       | Leaf true, _ -> Some (neg m b)
       | _, Leaf true -> Some (neg m a)
       | _ when a == b -> Some m.f_leaf
       | _ -> None)
    a b

let rec of_formula m f =
  match Formula.view f with
  | Formula.True -> m.t_leaf
  | Formula.False -> m.f_leaf
  | Formula.Var v -> var m v
  | Formula.Not f -> neg m (of_formula m f)
  | Formula.And fs ->
    List.fold_left (fun acc f -> conj m acc (of_formula m f)) m.t_leaf fs
  | Formula.Or fs ->
    List.fold_left (fun acc f -> disj m acc (of_formula m f)) m.f_leaf fs

let restrict m rv b t =
  let rl = var_level m rv in
  let memo = Hashtbl.create 64 in
  let rec go t =
    match t.desc with
    | Leaf _ -> t
    | Node { v; lo; hi } ->
      let l = level_of m t in
      if l > rl then t
      else begin
        match Hashtbl.find_opt memo t.id with
        | Some n -> n
        | None ->
          let n =
            if v = rv then if b then hi else lo
            else mk m v (go lo) (go hi)
          in
          Hashtbl.replace memo t.id n;
          n
      end
  in
  go t

let equal a b = a == b
let is_true t = match t.desc with Leaf true -> true | _ -> false
let is_false t = match t.desc with Leaf false -> true | _ -> false

let rec eval env t =
  match t.desc with
  | Leaf b -> b
  | Node { v; lo; hi } -> if env v then eval env hi else eval env lo

let eval_set s t = eval (fun v -> Vset.mem v s) t

let size t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.replace seen t.id ();
      match t.desc with
      | Leaf _ -> ()
      | Node { lo; hi; _ } ->
        go lo;
        go hi
    end
  in
  go t;
  Hashtbl.length seen

let support t =
  let seen = Hashtbl.create 64 in
  let acc = ref Vset.empty in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.replace seen t.id ();
      match t.desc with
      | Leaf _ -> ()
      | Node { v; lo; hi } ->
        acc := Vset.add v !acc;
        go lo;
        go hi
    end
  in
  go t;
  !acc

let to_circuit m t =
  let _ = m in
  let memo = Hashtbl.create 256 in
  let rec go t =
    match t.desc with
    | Leaf b -> Circuit.cbool b
    | Node { v; lo; hi } ->
      (match Hashtbl.find_opt memo t.id with
       | Some c -> c
       | None ->
         let c =
           Circuit.cor_det
             [ Circuit.cand [ Circuit.cnot (Circuit.cvar v); go lo ];
               Circuit.cand [ Circuit.cvar v; go hi ] ]
         in
         Hashtbl.replace memo t.id c;
         c)
  in
  go t

(* [to_circuit] builds deterministic, decomposable Shannon gadgets over
   exactly the support, so {!Count} counts them; a universe variable
   outside the manager's order is refused first, as [var] refuses it. *)
let count_by_size m ~vars t =
  List.iter (fun v -> ignore (var_level m v)) vars;
  Count.count_by_size ~vars (to_circuit m t)

let count m ~vars t = Kvec.total (count_by_size m ~vars t)

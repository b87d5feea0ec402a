type weight = { leaf : int -> Kvec.t; free : Kvec.t }

let counting = { leaf = (fun _ -> Kvec.singleton_true); free = Kvec.all ~n:1 }

(* [u^m] for the free vector [u], as [m -> u^m].  Counting's [1 + t] has
   the shared binomial rows as its powers; any other [u] gets a table
   that lives as long as the pass. *)
let powers w =
  if Kvec.equal w.free counting.free then fun m -> Kvec.all ~n:m
  else begin
    let table = Hashtbl.create 8 in
    let rec pow m =
      if m = 0 then Kvec.const_true ~n:0
      else
        match Hashtbl.find_opt table m with
        | Some p -> p
        | None ->
          let p = Kvec.conv (pow (m - 1)) w.free in
          Hashtbl.add table m p;
          p
    in
    pow
  end

(* Smoothing by [extra] free variables convolves with [u^extra]; the
   complement of a vector over [m] variables subtracts it from [u^m]. *)
let smooth pow v ~extra = if extra = 0 then v else Kvec.conv v (pow extra)
let complement pow v = Kvec.sub (pow (Kvec.universe_size v)) v
let scope (g : Circuit.node) = Vset.cardinal g.vars

(* The forward pass: one bottom-up sweep computing every reachable gate's
   weighted vector over its own scope.  The memo is per call (node ids
   are process-global, so a persistent memo would never see collisions,
   but per-call keeps the module stateless).  Besides the memo it returns
   the gates in top-down order (each gate before all of its children),
   which the backward pass walks. *)
let forward w pow root =
  if Obs.enabled () then begin
    Obs.incr "circuit.kcounts";
    Obs.add "circuit.kcount_gates" (Circuit.size root)
  end;
  let memo : (int, Kvec.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let rec go (g : Circuit.node) =
    match Hashtbl.find_opt memo g.id with
    | Some v -> v
    | None ->
      let v =
        match g.gate with
        | Circuit.Ctrue -> Kvec.const_true ~n:0
        | Circuit.Cfalse -> Kvec.const_false ~n:0
        | Circuit.Cvar x -> w.leaf x
        | Circuit.Cnot h -> complement pow (go h)
        | Circuit.Cand gs -> Kvec.conv_list (List.map go gs)
        | Circuit.Cor (Circuit.Deterministic, gs) ->
          List.fold_left
            (fun acc h ->
               Kvec.add acc (smooth pow (go h) ~extra:(scope g - scope h)))
            (Kvec.const_false ~n:(scope g))
            gs
        | Circuit.Cor (Circuit.Disjoint, gs) ->
          (* all − Π (non-models of children).  Each factor lives on its
             child's scope, and [conv] adds universes, so [non] lives on
             Σ|vars h| — which equals |g.vars| exactly because cor_disj
             enforces pairwise-disjoint child scopes and sets the gate
             scope to their union.  The [smooth] below is therefore a
             no-op ([extra = 0]) for every constructible circuit; it
             pins the invariant so a future scope change cannot silently
             complement over the wrong universe. *)
          let non =
            Kvec.conv_list (List.map (fun h -> complement pow (go h)) gs)
          in
          complement pow
            (smooth pow non ~extra:(scope g - Kvec.universe_size non))
      in
      Hashtbl.replace memo g.id v;
      order := g :: !order;
      v
  in
  let top = go root in
  (memo, !order, top)

let check_universe ~vars g =
  let universe = Vset.of_list vars in
  if Vset.cardinal universe <> List.length vars then
    invalid_arg "Count: duplicate variables in the universe";
  if not (Vset.subset (Circuit.vars g) universe) then
    invalid_arg "Count: universe misses circuit variables"

let count_by_size_circuit root =
  let _, _, top = forward counting (powers counting) root in
  top

let count_by_size ~vars g =
  check_universe ~vars g;
  let base = count_by_size_circuit g in
  Kvec.extend base ~extra:(List.length vars - Kvec.universe_size base)

let count ~vars g = Kvec.total (count_by_size ~vars g)
let count_circuit g = Kvec.total (count_by_size_circuit g)

(* [a · Π_{j≠i} fs.(j)] for every [i], from prefix and suffix products:
   about 3m convolutions for m factors instead of m². *)
let sibling_products a fs =
  let m = Array.length fs in
  let suffix = Array.make (m + 1) (Kvec.const_true ~n:0) in
  for i = m - 1 downto 1 do
    suffix.(i) <- Kvec.conv fs.(i) suffix.(i + 1)
  done;
  let prefix = ref a in
  Array.init m (fun i ->
      let out = Kvec.conv !prefix suffix.(i + 1) in
      if i < m - 1 then prefix := Kvec.conv !prefix fs.(i);
      out)

(* The backward pass.  count.mli gives the argument that each leaf ends
   up holding its exact derivative.  A gate's adjoint, over the universe
   minus the gate's scope, is the vector by which a change of the gate's
   own vector moves the root's. *)
let differences ~weight ~vars root =
  check_universe ~vars root;
  let n = List.length vars in
  let pow = powers weight in
  let value, order, top = forward weight pow root in
  let adjoint : (int, Kvec.t) Hashtbl.t = Hashtbl.create 256 in
  let push (h : Circuit.node) a =
    Hashtbl.replace adjoint h.id
      (match Hashtbl.find_opt adjoint h.id with
       | None -> a
       | Some b -> Kvec.add b a)
  in
  let push_all hs parts = List.iteri (fun i h -> push h parts.(i)) hs in
  let vec (h : Circuit.node) = Hashtbl.find value h.id in
  let size h = Kvec.universe_size (vec h) in
  let leaf : (int, Kvec.t) Hashtbl.t = Hashtbl.create 64 in
  (* Padding to the universe multiplies the root by [u^(n − |vars G|)]. *)
  push root (pow (n - Kvec.universe_size top));
  List.iter
    (fun (g : Circuit.node) ->
       let a = Hashtbl.find adjoint g.id in
       match g.gate with
       | Circuit.Ctrue | Circuit.Cfalse -> ()
       | Circuit.Cvar x -> Hashtbl.replace leaf x a
       | Circuit.Cnot h -> push h (Kvec.neg a)
       | Circuit.Cand hs ->
         push_all hs (sibling_products a (Array.of_list (List.map vec hs)))
       | Circuit.Cor (Circuit.Deterministic, hs) ->
         List.iter (fun h -> push h (smooth pow a ~extra:(size g - size h))) hs
       | Circuit.Cor (Circuit.Disjoint, hs) ->
         let non =
           Array.of_list (List.map (fun h -> complement pow (vec h)) hs)
         in
         (* Mirrors the forward pass's (no-op) smoothing of [non]. *)
         let extra =
           Array.fold_left (fun acc v -> acc - Kvec.universe_size v) (size g) non
         in
         push_all hs (sibling_products (smooth pow a ~extra) non))
    order;
  List.map
    (fun x ->
       match Hashtbl.find_opt leaf x with
       | Some d -> (x, d)
       | None -> (x, Kvec.zero ~n:(n - 1)))
    (List.sort compare vars)

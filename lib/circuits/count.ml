(* The forward pass: one bottom-up sweep computing every reachable gate's
   stratified vector over its own scope.  The memo is per call (node ids
   are process-global, so a persistent memo would never see collisions,
   but per-call keeps the module stateless).  Besides the memo it returns
   the gates in top-down order (each gate before all of its children),
   which the backward pass walks. *)
let forward root =
  if Obs.enabled () then begin
    Obs.incr "circuit.kcounts";
    Obs.add "circuit.kcount_gates" (Circuit.size root)
  end;
  let memo : (int, Kvec.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let smooth_to scope child_vec child_vars =
    Kvec.extend child_vec
      ~extra:(Vset.cardinal scope - Vset.cardinal child_vars)
  in
  let rec go (g : Circuit.node) =
    match Hashtbl.find_opt memo g.id with
    | Some v -> v
    | None ->
      let v =
        match g.gate with
        | Circuit.Ctrue -> Kvec.const_true ~n:0
        | Circuit.Cfalse -> Kvec.const_false ~n:0
        | Circuit.Cvar _ -> Kvec.singleton_true
        | Circuit.Cnot h -> Kvec.complement (go h)
        | Circuit.Cand gs -> Kvec.conv_list (List.map go gs)
        | Circuit.Cor (Circuit.Deterministic, gs) ->
          List.fold_left
            (fun acc h ->
               Kvec.add acc (smooth_to g.vars (go h) (Circuit.vars h)))
            (Kvec.const_false ~n:(Vset.cardinal g.vars))
            gs
        | Circuit.Cor (Circuit.Disjoint, gs) ->
          (* all − Π (non-models of children).  Each factor lives on its
             child's scope, and [conv] adds universes, so [non] lives on
             Σ|vars h| — which equals |g.vars| exactly because cor_disj
             enforces pairwise-disjoint child scopes and sets the gate
             scope to their union.  The [extend] below is therefore a
             no-op ([extra = 0]) for every constructible circuit; it
             pins the invariant so a future scope change cannot silently
             complement over the wrong universe. *)
          let non = Kvec.conv_list (List.map (fun h -> Kvec.complement (go h)) gs) in
          Kvec.complement
            (Kvec.extend non
               ~extra:(Vset.cardinal g.vars - Kvec.universe_size non))
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
  let _, _, top = forward root in
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

(* The backward pass.  Give variable [x] weight [t + ε] when true and
   [1 − ε] when false.  The padded root vector is a weighted model count,
   multilinear in the weights, so it becomes
   [(t + ε)·#G[x:=1] + (1 − ε)·#G[x:=0]]: affine in ε, with the wanted
   difference vector as its slope.  Inside the circuit the shift only
   moves the leaf [x] from [t] to [t + ε], because smoothing and
   complement terms weigh [x] by the sum of its two weights, [1 + t].  So
   each difference vector is the exact derivative of the root vector by a
   leaf, and reverse-mode accumulation yields all of them in one sweep.
   A gate's adjoint, over the universe minus the gate's scope, is the
   vector by which a change of the gate's own vector moves the root's. *)
let differences ~vars root =
  check_universe ~vars root;
  let n = List.length vars in
  let value, order, top = forward root in
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
  (* Padding to the universe multiplies the root by a binomial row. *)
  push root (Kvec.all ~n:(n - Kvec.universe_size top));
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
         List.iter (fun h -> push h (Kvec.extend a ~extra:(size g - size h))) hs
       | Circuit.Cor (Circuit.Disjoint, hs) ->
         let non =
           Array.of_list (List.map (fun h -> Kvec.complement (vec h)) hs)
         in
         (* Mirrors the forward pass's (no-op) smoothing of [non]. *)
         let extra =
           Array.fold_left (fun acc v -> acc - Kvec.universe_size v) (size g) non
         in
         push_all hs (sibling_products (Kvec.extend a ~extra) non))
    order;
  List.map
    (fun x ->
       match Hashtbl.find_opt leaf x with
       | Some d -> (x, d)
       | None -> (x, Kvec.zero ~n:(n - 1)))
    (List.sort compare vars)

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
   weighted vector over its own scope.  It returns the memoized pass
   itself, so the backward pass reads gate values through it, and the
   gates in top-down order (each gate before all of its children), which
   the backward pass walks. *)
let forward w pow root =
  let order = ref [] in
  let value =
    Circuit.memo (fun go (g : Circuit.node) ->
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
        order := g :: !order;
        v)
  in
  let top = value root in
  (* [order] holds every reachable gate once: the pass's gate count. *)
  if Obs.observing () then begin
    Obs.incr "circuit.kcounts";
    Obs.add "circuit.kcount_gates" (List.length !order)
  end;
  (value, !order, top)

let check_universe ~vars g =
  ignore
    (Vset.universe ~who:"Count" ~noun:"circuit variables" ~vars
       (Circuit.vars g))

let count_by_size_circuit root =
  let _, _, top = forward counting (powers counting) root in
  top

let count_by_size ~vars g =
  check_universe ~vars g;
  let base = count_by_size_circuit g in
  Kvec.extend base ~extra:(List.length vars - Kvec.universe_size base)

let count ~vars g = Kvec.total (count_by_size ~vars g)
let count_circuit g = Kvec.total (count_by_size_circuit g)

module Kvec_table = Hashtbl.Make (Kvec)

(* [a · Π_{j≠i} fs.(j)] for every [i]: the exact quotient of
   [a · Π_j fs.(j)] by [fs.(i)] ({!Kvec.div_exact}), one per distinct
   vector, for m convolutions and at most m series divisions where
   the pairwise products cost m².  Two siblings need no division: each
   gets [a] times the other.  A zero vector has no quotient: when one
   sibling is zero it alone receives the others' product, and every
   other adjoint is zero, as they all are when two or more are. *)
let sibling_products a fs =
  let total =
    Array.fold_left
      (fun n f -> n + Kvec.universe_size f)
      (Kvec.universe_size a) fs
  in
  let zero i = Kvec.zero ~n:(total - Kvec.universe_size fs.(i)) in
  let indices = List.init (Array.length fs) Fun.id in
  match List.filter (fun i -> Kvec.is_zero fs.(i)) indices with
  | [] when Array.length fs = 2 -> [| Kvec.conv a fs.(1); Kvec.conv a fs.(0) |]
  | [] ->
    let all = Kvec.conv_list (a :: Array.to_list fs) in
    let quotients = Kvec_table.create 8 in
    Array.map
      (fun f ->
         match Kvec_table.find_opt quotients f with
         | Some q -> q
         | None ->
           let q = Kvec.div_exact all f in
           Kvec_table.add quotients f q;
           q)
      fs
  | [ z ] ->
    let others = List.filter (fun i -> i <> z) indices in
    let product = Kvec.conv_list (a :: List.map (Array.get fs) others) in
    Array.mapi (fun i _ -> if i = z then product else zero i) fs
  | _ -> Array.mapi (fun i _ -> zero i) fs

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
  let size h = Kvec.universe_size (value h) in
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
         push_all hs (sibling_products a (Array.of_list (List.map value hs)))
       | Circuit.Cor (Circuit.Deterministic, hs) ->
         List.iter (fun h -> push h (smooth pow a ~extra:(size g - size h))) hs
       | Circuit.Cor (Circuit.Disjoint, hs) ->
         let non =
           Array.of_list (List.map (fun h -> complement pow (value h)) hs)
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

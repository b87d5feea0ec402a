(** Tests for k-vectors, brute-force counting, the DPLL counter and the
    bipartite counter. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let parse = Parser.formula_of_string_exn

let kvec_of_ints n l = Kvec.make ~n (Array.of_list (List.map bi l))

let kvec_tests =
  [ t "example 2 vector" (fun () ->
        Alcotest.check kvec "(0,1,1,1)"
          (kvec_of_ints 3 [ 0; 1; 1; 1 ])
          (Brute.count_by_size ~vars:example2_vars example2_formula));
    t "total" (fun () ->
        Alcotest.check bigint "3" (bi 3)
          (Kvec.total (kvec_of_ints 3 [ 0; 1; 1; 1 ])));
    t "all and zero" (fun () ->
        Alcotest.check kvec "all(3)" (kvec_of_ints 3 [ 1; 3; 3; 1 ]) (Kvec.all ~n:3);
        Alcotest.check kvec "zero(2)" (kvec_of_ints 2 [ 0; 0; 0 ]) (Kvec.zero ~n:2));
    t "conv = independent conjunction" (fun () ->
        (* X over {X} times Y over {Y}: X∧Y over {X,Y} = (0,0,1) *)
        Alcotest.check kvec "x&y"
          (kvec_of_ints 2 [ 0; 0; 1 ])
          (Kvec.conv Kvec.singleton_true Kvec.singleton_true));
    t "extend smooths with binomials" (fun () ->
        (* X over {X} extended by 2 free vars: #_k = C(2,k-1) *)
        Alcotest.check kvec "x + 2 free"
          (kvec_of_ints 3 [ 0; 1; 2; 1 ])
          (Kvec.extend Kvec.singleton_true ~extra:2));
    t "complement" (fun () ->
        Alcotest.check kvec "!x"
          Kvec.singleton_false
          (Kvec.complement Kvec.singleton_true));
    t "disjoint_or" (fun () ->
        (* X ∨ Y over {X,Y}: models {X},{Y},{XY} → (0,2,1) *)
        Alcotest.check kvec "x|y"
          (kvec_of_ints 2 [ 0; 2; 1 ])
          (Kvec.disjoint_or Kvec.singleton_true Kvec.singleton_true));
    t "weighted_sum is claim 3.5 rhs" (fun () ->
        (* Σ (2^2−1)^k #_k for example 2: 0 + 3 + 9 + 27 = 39 *)
        Alcotest.check bigint "l=2" (bi 39)
          (Kvec.weighted_sum
             (kvec_of_ints 3 [ 0; 1; 1; 1 ])
             (Bigint.two_pow_minus_one 2)));
    t "mismatched universes rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Kvec.add (Kvec.all ~n:2) (Kvec.all ~n:3));
             false
           with Invalid_argument _ -> true));
    qtest "conv commutes and respects totals" ~count:60
      (QCheck.pair (arb_formula ~nvars:3 ~depth:3) (arb_formula ~nvars:3 ~depth:3))
      (fun (f, g) ->
         (* move g to fresh variables so universes are disjoint *)
         let g = Formula.rename (fun v -> v + 10) g in
         let vf = Vset.elements (Formula.vars f) in
         let vg = Vset.elements (Formula.vars g) in
         QCheck.assume (vf <> [] && vg <> []);
         let a = Brute.count_by_size ~vars:vf f in
         let b = Brute.count_by_size ~vars:vg g in
         Kvec.equal (Kvec.conv a b) (Kvec.conv b a)
         && Bigint.equal
              (Kvec.total (Kvec.conv a b))
              (Bigint.mul (Kvec.total a) (Kvec.total b)));
    qtest "extend composes" ~count:60 (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let kv = Brute.count_by_size ~vars f in
         Kvec.equal
           (Kvec.extend (Kvec.extend kv ~extra:2) ~extra:3)
           (Kvec.extend kv ~extra:5));
    qtest "complement involutive; disjoint_or = conv on complements" ~count:60
      (arb_formula ~nvars:4 ~depth:3)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         let kv = Brute.count_by_size ~vars f in
         Kvec.equal kv (Kvec.complement (Kvec.complement kv)))
  ]

let brute_tests =
  [ t "unused universe variables double the count" (fun () ->
        Alcotest.check bigint "x1 over {1,2}" (bi 2)
          (Brute.count ~vars:[ 1; 2 ] (Formula.var 1)));
    t "constants" (fun () ->
        Alcotest.check bigint "true over 3" (bi 8)
          (Brute.count ~vars:[ 1; 2; 3 ] Formula.tru);
        Alcotest.check bigint "false" Bigint.zero
          (Brute.count ~vars:[ 1; 2; 3 ] Formula.fls))
  ]

let dpll_tests =
  [ t "agrees on example 2" (fun () ->
        Alcotest.check kvec "kvec"
          (Brute.count_by_size ~vars:example2_vars example2_formula)
          (Dpll.count_by_size_universe ~vars:example2_vars example2_formula));
    t "universe check" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Dpll.count_universe ~vars:[ 2 ] (Formula.var 1));
             false
           with Invalid_argument _ -> true));
    t "handles wide read-once formulas (beyond brute force)" (fun () ->
        (* (x1|x2) & (x3|x4) & ... 20 clauses, 40 vars: count = 3^20 *)
        let clauses =
          List.init 20 (fun i ->
              Formula.disj2 (Formula.var ((2 * i) + 1)) (Formula.var ((2 * i) + 2)))
        in
        let f = Formula.and_ clauses in
        Alcotest.check bigint "3^20"
          (Bigint.pow (bi 3) 20)
          (Dpll.count f));
    t "stats reports work" (fun () ->
        (* a single connected component, so the counter must branch *)
        let f = parse "x1 & x2 | x2 & x3" in
        let n, stats = Dpll.count_with_stats f in
        Alcotest.check bigint "count" (bi 3) n;
        Alcotest.(check bool) "branched" true (stats.Dpll.branches >= 1);
        (* a variable-disjoint disjunction decomposes without branching *)
        let g = parse "x1 & x2 | x3 & x4" in
        let n', stats' = Dpll.count_with_stats g in
        Alcotest.check bigint "count'" (bi 7) n';
        Alcotest.(check int) "no branches" 0 stats'.Dpll.branches);
    qtest "dpll = brute (count)" ~count:80 (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         Bigint.equal (Brute.count ~vars f) (Dpll.count_universe ~vars f));
    qtest "dpll = brute (stratified)" ~count:80 (arb_formula ~nvars:6 ~depth:5)
      (fun f ->
         let vars = Vset.elements (Formula.vars f) in
         QCheck.assume (vars <> []);
         Kvec.equal
           (Brute.count_by_size ~vars f)
           (Dpll.count_by_size_universe ~vars f));
    qtest "pdnf counting agrees" ~count:60 (arb_pdnf ~nvars:6 ~clauses:4)
      (fun d ->
         let f = Nf.pdnf_to_formula d in
         let vars = Vset.elements (Nf.pdnf_vars d) in
         QCheck.assume (vars <> []);
         Bigint.equal (Brute.count ~vars f) (Dpll.count_universe ~vars f));
    (* Over the universe {1}, x1 has one model, not two; and x1 is one
       player of x1 & x2, not two. *)
    t "duplicate universe variables are rejected" (fun () ->
        let raises name f =
          Alcotest.(check bool) name true
            (try
               ignore (f ());
               false
             with Invalid_argument _ -> true)
        in
        let x1 = Formula.var 1 and g = Circuit.cand [ Circuit.cvar 1; Circuit.cvar 2 ] in
        raises "Dpll.count_universe" (fun () -> Dpll.count_universe ~vars:[ 1; 1 ] x1);
        raises "Dpll.count_by_size_universe" (fun () ->
            Dpll.count_by_size_universe ~vars:[ 1; 1 ] x1);
        raises "Count.count" (fun () -> Count.count ~vars:[ 1; 1 ] (Circuit.cvar 1));
        raises "Count.differences" (fun () ->
            Count.differences ~weight:Count.counting ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.shap_direct" (fun () ->
            Circuit_shapley.shap_direct ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.shap_via_reduction" (fun () ->
            Circuit_shapley.shap_via_reduction ~vars:[ 1; 1; 2 ] g);
        (* Over {1, 2}, x1 is one player of x1 & x2 with Banzhaf value
           1/2; and I(1, 2) of x1 & x2 | x3 is 1/2.  A repeat skews both. *)
        raises "Power_indices.banzhaf" (fun () ->
            Power_indices.banzhaf ~vars:[ 1; 1; 2 ]
              (Formula.and_ [ x1; Formula.var 2 ]));
        raises "Prob.shap_score" (fun () ->
            Prob.shap_score ~weights:(fun _ -> Rat.zero)
              ~entity:(fun _ -> true) ~vars:[ 1; 1; 2 ] g);
        raises "Circuit_shapley.interaction_naive" (fun () ->
            Circuit_shapley.interaction_naive ~vars:[ 1; 1; 2; 3 ]
              (Parser.formula_of_string_exn "x1 & x2 | x3")
              1 2);
        Alcotest.check bigint "a universe without repeats" Bigint.one
          (Dpll.count_universe ~vars:[ 1 ] x1))
  ]

let bipartite_tests =
  [ t "triangle-free example" (fun () ->
        (* edges (0,0),(0,1),(1,1) over 2+2 vars; count computed by hand
           via brute force below *)
        let inst = Bipartite.make ~a:2 ~b:2 [ (0, 0); (0, 1); (1, 1) ] in
        let f = Bipartite.to_formula inst in
        let vars = Bipartite.all_vars inst in
        Alcotest.check bigint "count"
          (Brute.count ~vars f)
          (Bipartite.count inst));
    t "no edges means no models" (fun () ->
        let inst = Bipartite.make ~a:3 ~b:2 [] in
        Alcotest.check bigint "0" Bigint.zero (Bipartite.count inst));
    t "complete bipartite" (fun () ->
        (* K_{1,1}: F = X∧Y, count 1 over 2 vars *)
        let inst = Bipartite.make ~a:1 ~b:1 [ (0, 0) ] in
        Alcotest.check bigint "1" Bigint.one (Bipartite.count inst));
    t "edge out of range rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Bipartite.make ~a:1 ~b:1 [ (1, 0) ]);
             false
           with Invalid_argument _ -> true));
    t "a right part wider than 62 is rejected by both counters" (fun () ->
        (* One bit per right vertex: bit 63 does not exist, and the
           stratified counter used to total 0 here instead of 2^63. *)
        let inst = Bipartite.make ~a:1 ~b:64 [ (0, 63) ] in
        Alcotest.check_raises "count"
          (Invalid_argument "Bipartite.count: right part too large")
          (fun () -> ignore (Bipartite.count inst));
        Alcotest.check_raises "count_by_size"
          (Invalid_argument "Bipartite.count_by_size: right part too large")
          (fun () -> ignore (Bipartite.count_by_size inst)));
    t "the widest right part (62) is counted exactly by both" (fun () ->
        (* F = X0 ∧ Y61 over 63 variables: its models fix two of them
           and leave 61 free, so #F = 2^61 and C(61, k-2) have size k. *)
        let inst = Bipartite.make ~a:1 ~b:62 [ (0, 61) ] in
        let two_61 = Bigint.pow (bi 2) 61 in
        Alcotest.check bigint "count" two_61 (Bipartite.count inst);
        let kv = Bipartite.count_by_size inst in
        Alcotest.check bigint "count_by_size totals it" two_61
          (Kvec.total kv);
        Alcotest.check bigint "size 2: X0 and Y61 alone" Bigint.one
          (Kvec.get kv 2);
        Alcotest.check bigint "size 3" (bi 61) (Kvec.get kv 3);
        Alcotest.check bigint "size 63: all true" Bigint.one
          (Kvec.get kv 63));
    t "isolated vertices count as free variables" (fun () ->
        (* a=2,b=1, edge (0,0): F = X0∧Y0 over 3 vars → count 2 *)
        let inst = Bipartite.make ~a:2 ~b:1 [ (0, 0) ] in
        Alcotest.check bigint "2" (bi 2) (Bipartite.count inst));
    qtest "bipartite counter = brute force" ~count:40
      (QCheck.make
         QCheck.Gen.(
           let* a = int_range 1 4 in
           let* b = int_range 1 4 in
           let* seed = int_range 0 10000 in
           return (a, b, seed)))
      (fun (a, b, seed) ->
         let inst = Bipartite.random ~a ~b ~density:0.4 ~seed in
         let f = Bipartite.to_formula inst in
         let vars = Bipartite.all_vars inst in
         Bigint.equal (Brute.count ~vars f) (Bipartite.count inst))
    ;
    qtest "bipartite stratified = brute force" ~count:25
      (QCheck.make
         QCheck.Gen.(
           let* a = int_range 1 4 in
           let* b = int_range 1 4 in
           let* seed = int_range 0 10000 in
           return (a, b, seed)))
      (fun (a, b, seed) ->
         let inst = Bipartite.random ~a ~b ~density:0.5 ~seed in
         let f = Bipartite.to_formula inst in
         let vars = Bipartite.all_vars inst in
         Kvec.equal (Brute.count_by_size ~vars f) (Bipartite.count_by_size inst))
  ]

let karp_luby_tests =
  [ t "exact on a single clause" (fun () ->
        (* F = x1 & x2 over 4 vars: #F = 4; single clause means every
           sample hits (its clause is always first), so the estimate is
           exactly U = 2^(n-2). *)
        let d = [ Vset.of_list [ 1; 2 ] ] in
        let est =
          Karp_luby.count_samples ~seed:1 ~samples:50 ~vars:[ 1; 2; 3; 4 ] d
        in
        Alcotest.(check (float 0.001)) "exact" 4.0 est.Karp_luby.value);
    t "sample bound shape" (fun () ->
        let a = Karp_luby.sample_bound ~clauses:5 ~eps:0.1 ~delta:0.05 in
        let b = Karp_luby.sample_bound ~clauses:10 ~eps:0.1 ~delta:0.05 in
        Alcotest.(check bool) "linear in m" true (b >= 2 * a - 1);
        Alcotest.(check bool) "rejects eps=0" true
          (try
             ignore (Karp_luby.sample_bound ~clauses:1 ~eps:0.0 ~delta:0.5);
             false
           with Invalid_argument _ -> true));
    t "constant DNF rejected" (fun () ->
        Alcotest.(check bool) "empty" true
          (try
             ignore (Karp_luby.count_samples ~samples:10 ~vars:[ 1 ] []);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "true clause" true
          (try
             ignore
               (Karp_luby.count_samples ~samples:10 ~vars:[ 1 ]
                  [ Vset.empty ]);
             false
           with Invalid_argument _ -> true));
    qtest "(eps, delta) guarantee holds empirically" ~count:15
      (arb_pdnf ~nvars:8 ~clauses:5)
      (fun d ->
         let d = Nf.pdnf_minimize d in
         QCheck.assume (d <> [] && not (List.exists Vset.is_empty d));
         let vars = List.init 10 succ in
         let exact =
           Bigint.to_float (Brute.count ~vars (Nf.pdnf_to_formula d))
         in
         let est = Karp_luby.count ~seed:7 ~eps:0.2 ~delta:0.05 ~vars d in
         Float.abs (est.Karp_luby.value -. exact) <= 0.2 *. exact);
    qtest "fixed-sample estimates converge" ~count:10
      (QCheck.make QCheck.Gen.(int_range 0 9999))
      (fun seed ->
         let inst = Bipartite.random ~a:4 ~b:4 ~density:0.4 ~seed in
         QCheck.assume (inst.Bipartite.edges <> []);
         let d = Bipartite.to_pdnf inst in
         let vars = Bipartite.all_vars inst in
         let exact = Bigint.to_float (Bipartite.count inst) in
         let est = Karp_luby.count_samples ~seed ~samples:20000 ~vars d in
         Float.abs (est.Karp_luby.value -. exact) <= 0.15 *. exact +. 1.0)
  ]

(* ------------------------------------------------------------------ *)
(* The native tier.  The Bigint-only vectors it replaced, kept as an
   oracle: every operation on one Bigint loop, binomial rows by Pascal's
   rule. *)
module Old_kvec = struct
  type t = { n : int; counts : Bigint.t array }

  let make ~n counts = { n; counts = Array.copy counts }
  let get v k = if k < 0 || k > v.n then Bigint.zero else v.counts.(k)
  let total v = Array.fold_left Bigint.add Bigint.zero v.counts

  let rec binom_row n =
    if n = 0 then [| Bigint.one |]
    else
      let prev = binom_row (n - 1) in
      Array.init (n + 1) (fun i ->
          if i = 0 || i = n then Bigint.one else Bigint.add prev.(i - 1) prev.(i))

  let all ~n = { n; counts = binom_row n }

  let conv a b =
    let n = a.n + b.n in
    let out = Array.make (n + 1) Bigint.zero in
    for i = 0 to a.n do
      for j = 0 to b.n do
        out.(i + j) <- Bigint.add out.(i + j) (Bigint.mul a.counts.(i) b.counts.(j))
      done
    done;
    { n; counts = out }

  let conv_list vs = List.fold_left conv (all ~n:0) vs

  let pointwise op a b =
    { n = a.n; counts = Array.mapi (fun i c -> op c b.counts.(i)) a.counts }

  let add = pointwise Bigint.add
  let sub = pointwise Bigint.sub
  let neg v = { v with counts = Array.map Bigint.neg v.counts }
  let complement v = sub (all ~n:v.n) v
  let extend v ~extra = if extra = 0 then v else conv v (all ~n:extra)

  let div_exact p f =
    let m = p.n - f.n in
    let s =
      Option.get (Array.find_index (fun c -> not (Bigint.is_zero c)) f.counts)
    in
    let q = Array.make (m + 1) Bigint.zero in
    for k = 0 to m do
      let acc = ref p.counts.(k + s) in
      for j = Stdlib.max 0 (k + s - f.n) to k - 1 do
        acc := Bigint.sub !acc (Bigint.mul q.(j) f.counts.(s + k - j))
      done;
      q.(k) <- Bigint.div !acc f.counts.(s)
    done;
    { n = m; counts = q }

  let disjoint_or a b =
    sub (all ~n:(a.n + b.n)) (conv (complement a) (complement b))

  let weighted_sum v w =
    let acc = ref Bigint.zero in
    for k = v.n downto 0 do
      acc := Bigint.add (Bigint.mul !acc w) v.counts.(k)
    done;
    !acc
end

(* Entries around the native range: small ones of either sign (difference
   vectors), [max_int] and [min_int] and their neighbours outside it, and
   binomial coefficients up to C(70,35). *)
let gen_entry =
  let open QCheck.Gen in
  let b = Bigint.of_int in
  frequency
    [ (6, map b (int_range (-5) 5));
      (2, map (fun k -> Bigint.add (b max_int) (b k)) (int_range (-2) 2));
      (2, map (fun k -> Bigint.add (b min_int) (b k)) (int_range (-2) 2));
      (2, map2 (fun n k -> Old_kvec.get (Old_kvec.all ~n) k) (int_range 0 70)
            (int_range 0 35)) ]

(* Two vectors over one universe and a third over another, 0..70
   variables each; [kind] 1 makes them count-like ([C(n,k)] scaled by
   a small factor, native up to n = 65 or so). *)
let arb_kvecs =
  let open QCheck.Gen in
  let vec n kind =
    if kind = 1 then
      map
        (fun c ->
          Array.map (Bigint.mul (Bigint.of_int c)) (Old_kvec.binom_row n))
        (int_range 0 3)
    else array_repeat (n + 1) gen_entry
  in
  QCheck.make
    ~print:(fun (a, b, c) ->
      let p v = String.concat ";" (Array.to_list (Array.map Bigint.to_string v)) in
      Printf.sprintf "a=[%s] b=[%s] c=[%s]" (p a) (p b) (p c))
    (int_range 0 70 >>= fun n ->
     int_range 0 70 >>= fun m ->
     int_range 0 1 >>= fun kind ->
     triple (vec n kind) (vec n kind) (vec m kind))

let same (v : Kvec.t) (o : Old_kvec.t) =
  Kvec.universe_size v = o.Old_kvec.n
  && Array.for_all2 Bigint.equal (Kvec.to_array v) o.Old_kvec.counts

let kvecs_agree (a, b, c) =
  let na = Array.length a - 1 and nc = Array.length c - 1 in
  let ka = Kvec.make ~n:na a and kb = Kvec.make ~n:na b in
  let kc = Kvec.make ~n:nc c in
  let oa = Old_kvec.make ~n:na a and ob = Old_kvec.make ~n:na b in
  let oc = Old_kvec.make ~n:nc c in
  let w = Bigint.two_pow_minus_one 3 and extra = na mod 6 in
  let back = Kvec.sub (Kvec.add ka kb) kb in
  let checks =
    [ ("make", same ka oa);
      ("conv", same (Kvec.conv ka kc) (Old_kvec.conv oa oc));
      ("conv_list", same (Kvec.conv_list [ ka; kc; kb ]) (Old_kvec.conv_list [ oa; oc; ob ]));
      ("add", same (Kvec.add ka kb) (Old_kvec.add oa ob));
      ("sub", same (Kvec.sub ka kb) (Old_kvec.sub oa ob));
      ("neg", same (Kvec.neg ka) (Old_kvec.neg oa));
      ("complement", same (Kvec.complement kc) (Old_kvec.complement oc));
      ("extend", same (Kvec.extend kc ~extra) (Old_kvec.extend oc ~extra));
      ("disjoint_or", same (Kvec.disjoint_or ka kc) (Old_kvec.disjoint_or oa oc));
      ( "div_exact",
        Kvec.is_zero kc
        || same
             (Kvec.div_exact (Kvec.conv ka kc) kc)
             (Old_kvec.div_exact (Old_kvec.conv oa oc) oc)
           && Kvec.equal (Kvec.div_exact (Kvec.conv ka kc) kc) ka );
      ("weighted_sum", Bigint.equal (Kvec.weighted_sum ka w) (Old_kvec.weighted_sum oa w));
      ("total", Bigint.equal (Kvec.total ka) (Old_kvec.total oa));
      ( "get",
        List.for_all
          (fun k -> Bigint.equal (Kvec.get ka k) (Old_kvec.get oa k))
          (List.init (na + 3) (fun k -> k - 1)) );
      (* The same vector through a Bigint intermediate. *)
      ("equal and hash", Kvec.equal back ka && Kvec.hash back = Kvec.hash ka) ]
  in
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> true
  | bad -> QCheck.Test.fail_reportf "%s" (String.concat ", " (List.map fst bad))

(* Two vectors that are often equal: [b] is a copy of [a], [a] with
   one entry replaced, or another vector; entries straddle the native
   range, so both tiers and mixed pairs occur. *)
let arb_kvec_pairs =
  let open QCheck.Gen in
  let vec = int_range 0 12 >>= fun n -> array_repeat (n + 1) gen_entry in
  let p v = String.concat ";" (Array.to_list (Array.map Bigint.to_string v)) in
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "a=[%s] b=[%s]" (p a) (p b))
    (vec >>= fun a ->
     oneof
       [ return (a, Array.copy a);
         ( int_range 0 (Array.length a - 1) >>= fun i ->
           map
             (fun e ->
               let b = Array.copy a in
               b.(i) <- e;
               (a, b))
             gen_entry );
         map (fun b -> (a, b)) vec ])

(* [equal] is equality of the entries, and equal vectors hash equal,
   also when one of them is reached through other vectors. *)
let kvec_equal_and_hash (a, b) =
  let ka = Kvec.make ~n:(Array.length a - 1) a
  and kb = Kvec.make ~n:(Array.length b - 1) b in
  let entries_equal =
    let x = Kvec.to_array ka and y = Kvec.to_array kb in
    Array.length x = Array.length y && Array.for_all2 Bigint.equal x y
  in
  let kb' = Kvec.sub (Kvec.add kb kb) kb in
  Kvec.equal ka kb = entries_equal
  && ((not entries_equal) || Kvec.hash ka = Kvec.hash kb)
  && Kvec.equal kb' kb
  && Kvec.hash kb' = Kvec.hash kb

let kvec_tier_tests =
  [ QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 2024; 27 |])
      (QCheck.Test.make ~count:100 ~name:"kvec: native tier = Bigint-only vectors"
         arb_kvecs kvecs_agree);
    t "kvec: all ~n:65 and all ~n:66" (fun () ->
        let row65 = Kvec.all ~n:65 and row66 = Kvec.all ~n:66 in
        Alcotest.check bigint "C(65,32)"
          (Bigint.of_string "3609714217008132870") (Kvec.get row65 32);
        Alcotest.check bigint "C(66,33)"
          (Bigint.of_string "7219428434016265740") (Kvec.get row66 33);
        Alcotest.check bigint "2^65" (Bigint.pow Bigint.two 65) (Kvec.total row65);
        Alcotest.check bigint "2^66" (Bigint.pow Bigint.two 66) (Kvec.total row66);
        Alcotest.check kvec "row 65 extended" row66 (Kvec.extend row65 ~extra:1);
        Alcotest.check kvec "row 66 divided" row65
          (Kvec.div_exact row66 (Kvec.all ~n:1));
        Alcotest.(check int) "hash through Bigint" (Kvec.hash row65)
          (Kvec.hash (Kvec.div_exact row66 (Kvec.all ~n:1))));
    t "kvec: a negative universe is rejected by every constructor" (fun () ->
        List.iter
          (fun (what, f) ->
            Alcotest.check_raises what
              (Invalid_argument "Kvec.make: negative universe")
              (fun () -> ignore (f ())))
          [ ("all", fun () -> Kvec.all ~n:(-3));
            ("zero", fun () -> Kvec.zero ~n:(-3));
            ("const_true", fun () -> Kvec.const_true ~n:(-1));
            ("const_false", fun () -> Kvec.const_false ~n:(-1));
            ("make", fun () -> Kvec.make ~n:(-1) [||]) ]);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 2024; 30 |])
      (QCheck.Test.make ~count:300
         ~name:"kvec: equal is entry equality, and equal vectors hash equal"
         arb_kvec_pairs kvec_equal_and_hash) ]

let suite =
  kvec_tests @ brute_tests @ dpll_tests @ bipartite_tests @ karp_luby_tests
  @ kvec_tier_tests

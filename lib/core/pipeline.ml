type 'x or_closed = {
  or_subst : universe:Vset.t -> widths:(int -> int) -> 'x -> 'x * Subst.blocks;
  vars : 'x -> Vset.t;
  at_zero : 'x -> bool;
}

let check_universe ~vars support =
  let universe =
    Vset.universe ~who:"Pipeline" ~noun:"variables of the function" ~vars
      support
  in
  (universe, Vset.elements universe)

(* Lemma 3.3: the oracle counts x^(l) for l = 1..n+1. *)
let kcounts_via_count cls ~count ~vars x =
  let universe, sorted = check_universe ~vars (cls.vars x) in
  let n = List.length sorted in
  Obs.with_span "pipeline.kcounts_via_count_oracle"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  Reductions.kcounts_via_counting ~n ~count_subst:(fun ~l ->
      let x', blocks = cls.or_subst ~universe ~widths:(fun _ -> l) x in
      count ~l ~vars:(List.concat_map snd blocks) x')

(* Lemma 3.2 over Lemma 3.3: the full Shap(C) ≤P #~C chain.  Following the
   proof, the #_*-oracle is consulted on the isomorphic copy ~x (every
   width 1) and on the zapped functions ~x' (width 0 at X_i) rather than
   on x itself — both live in ~C. *)
let shap_via_count cls ~count ~vars x =
  let universe, sorted = check_universe ~vars (cls.vars x) in
  let n = List.length sorted in
  Obs.with_span "pipeline.shap_via_count_oracle"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  let kcounts ~widths =
    let x', blocks = cls.or_subst ~universe ~widths x in
    kcounts_via_count cls ~count ~vars:(List.concat_map snd blocks) x'
  in
  let kcount_full =
    Obs.phase "lemma3.2.full" ~attrs:[ ("n", Trace.Int n) ];
    kcounts ~widths:(fun _ -> 1)
  in
  let sorted_arr = Array.of_list sorted in
  let kcount_drop pos =
    let i = sorted_arr.(pos) in
    Obs.phase "lemma3.2.drop" ~attrs:[ ("i", Trace.Int i) ];
    kcounts ~widths:(fun v -> if v = i then 0 else 1)
  in
  let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
  List.mapi (fun pos i -> (i, values.(pos))) sorted

(* Lemma 3.4: #C ≤P Shap(~C).  The oracle is asked for Shap(x^(l,i), Z_i),
   where x^(l,i) gives X_i the single fresh variable Z_i and every other
   variable l of them.  [sorted_arr] indexes the n² (l, pos)
   consultations in O(1). *)
let kcounts_via_shap cls ~shap ~vars x =
  let universe, sorted = check_universe ~vars (cls.vars x) in
  let n = List.length sorted in
  let f_zero = cls.at_zero x in
  let sorted_arr = Array.of_list sorted in
  Obs.with_span "pipeline.kcounts_via_shap_oracle" @@ fun () ->
  Reductions.kcounts_via_shap ~n ~f_zero ~shap_subst:(fun ~l ~pos ->
      let i = sorted_arr.(pos) in
      let widths v = if v = i then 1 else l in
      let x', blocks = cls.or_subst ~universe ~widths x in
      let z = List.hd (List.assoc i blocks) in
      match
        List.assoc_opt z (shap ~l ~vars:(List.concat_map snd blocks) x')
      with
      | Some v -> v
      | None -> failwith "Pipeline: Shapley oracle did not report Z_i")

(* ------------------------------------------------------------------ *)
(* Formulas *)

let formulas =
  {
    or_subst = (fun ~universe ~widths f -> Subst.or_subst ~universe ~widths f);
    vars = Formula.vars;
    at_zero = Formula.eval_set Vset.empty;
  }

type count_oracle = {
  oracle_name : string;
  count : vars:int list -> Formula.t -> Bigint.t;
}

type shap_oracle = {
  shap_name : string;
  shap : vars:int list -> Formula.t -> (int * Rat.t) list;
}

let brute_count_oracle =
  { oracle_name = "brute"; count = (fun ~vars f -> Brute.count ~vars f) }

let dpll_count_oracle =
  { oracle_name = "dpll"; count = (fun ~vars f -> Dpll.count_universe ~vars f) }

let shap_oracle_of_subsets =
  { shap_name = "eq2-subsets"; shap = (fun ~vars f -> Naive.shap_subsets ~vars f) }

(* Every formula-oracle consultation goes through this wrapper so the Obs
   ledger records the paper's cost measure: which oracle, on how many
   variables, at which substitution arity ℓ, on how large an instance, and
   which lemma issued the call.  The metadata (sizes, lengths) is only
   computed when someone is observing. *)
let ledgered ~name ~lemma ?arity oracle ~vars f =
  if not (Obs.observing ()) then oracle ~vars f
  else
    Obs.call ~oracle:name ~n:(List.length vars) ?arity
      ~attrs:[ ("lemma", Trace.Str lemma) ]
      ~size:(Formula.size f)
      (fun () -> oracle ~vars f)

let kcounts_via_count_oracle ~oracle ~vars f =
  kcounts_via_count formulas ~vars f ~count:(fun ~l ->
      ledgered ~name:oracle.oracle_name ~lemma:"3.3" ~arity:l oracle.count)

let shap_via_count_oracle ~oracle ~vars f =
  shap_via_count formulas ~vars f ~count:(fun ~l ->
      ledgered ~name:oracle.oracle_name ~lemma:"3.3" ~arity:l oracle.count)

let count_via_shap_oracle ~oracle ~vars f =
  Kvec.total
    (kcounts_via_shap formulas ~vars f ~shap:(fun ~l ->
         ledgered ~name:oracle.shap_name ~lemma:"3.4" ~arity:l oracle.shap))

(* ------------------------------------------------------------------ *)
(* The prior-work PQE route [13]: Shapley values from a probabilistic-
   evaluation oracle instead of a counting oracle.  Same Lemma 3.2 core,
   but the #_*-oracle is realized by interpolation on the uniform tuple
   probability θ (Reductions.kcounts_via_probability) — no OR-substitution
   involved.  This is the baseline the paper's open problem was about. *)

type pqe_oracle = {
  pqe_name : string;
  prob : theta:Rat.t -> vars:int list -> Formula.t -> Rat.t;
}

(* Exact PQE via knowledge compilation: P(F) on the compiled circuit. *)
let pqe_circuit_oracle =
  {
    pqe_name = "compiled-circuit";
    prob =
      (fun ~theta ~vars f ->
         ignore vars;
         (* free universe variables do not change the probability *)
         Prob.probability ~weights:(fun _ -> theta) (Compile.compile f));
  }

let kcounts_via_pqe_oracle ~oracle ~vars f =
  let _, sorted = check_universe ~vars (Formula.vars f) in
  let n = List.length sorted in
  Obs.with_span "pipeline.kcounts_via_pqe_oracle" @@ fun () ->
  Reductions.kcounts_via_probability ~n ~prob:(fun ~theta ->
      ledgered ~name:oracle.pqe_name ~lemma:"pqe" (oracle.prob ~theta) ~vars f)

let shap_via_pqe_oracle ~oracle ~vars f =
  let _, sorted = check_universe ~vars (Formula.vars f) in
  let n = List.length sorted in
  Obs.with_span "pipeline.shap_via_pqe_oracle"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  (* Same Lemma 3.2 phase structure as the counting route, so traces of
     either route attribute oracle calls to the full/drop stages alike. *)
  let kcount_full =
    Obs.phase "lemma3.2.full" ~attrs:[ ("n", Trace.Int n) ];
    kcounts_via_pqe_oracle ~oracle ~vars f
  in
  let sorted_arr = Array.of_list sorted in
  let kcount_drop pos =
    let i = sorted_arr.(pos) in
    Obs.phase "lemma3.2.drop" ~attrs:[ ("i", Trace.Int i) ];
    let others = List.filter (fun v -> v <> i) sorted in
    kcounts_via_pqe_oracle ~oracle ~vars:others (Formula.restrict i false f)
  in
  let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
  List.mapi (fun pos i -> (i, values.(pos))) sorted

let roundtrip_count ~vars f =
  let inner =
    {
      shap_name = "shap-via-dpll-counting";
      shap = (fun ~vars f -> shap_via_count_oracle ~oracle:dpll_count_oracle ~vars f);
    }
  in
  count_via_shap_oracle ~oracle:inner ~vars f

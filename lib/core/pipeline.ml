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

let sorted_universe ~vars f =
  let universe = Vset.of_list vars in
  if Vset.cardinal universe <> List.length vars then
    invalid_arg "Pipeline: duplicate variables in the universe";
  if not (Vset.subset (Formula.vars f) universe) then
    invalid_arg "Pipeline: universe misses variables of the formula";
  (universe, List.sort compare vars)

(* Every oracle consultation goes through these wrappers so the Obs ledger
   records the paper's cost measure: which oracle, on how many variables,
   at which substitution arity ℓ, on how large an instance — and, when a
   trace is recording, which lemma issued the call.  The metadata (sizes,
   lengths) is only computed when someone is observing. *)
let ledgered_count ~oracle ?arity ?attrs ~vars f =
  if not (Obs.observing ()) then oracle.count ~vars f
  else
    Obs.call ~oracle:oracle.oracle_name ~n:(List.length vars) ?arity ?attrs
      ~size:(Formula.size f)
      (fun () -> oracle.count ~vars f)

let ledgered_shap ~oracle ?arity ?attrs ~vars f =
  if not (Obs.observing ()) then oracle.shap ~vars f
  else
    Obs.call ~oracle:oracle.shap_name ~n:(List.length vars) ?arity ?attrs
      ~size:(Formula.size f)
      (fun () -> oracle.shap ~vars f)

(* Lemma 3.3 instantiated with formula OR-substitution. *)
let kcounts_via_count_oracle ~oracle ~vars f =
  let universe, sorted = sorted_universe ~vars f in
  let n = List.length sorted in
  Obs.with_span "pipeline.kcounts_via_count_oracle"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  Reductions.kcounts_via_counting ~n ~count_subst:(fun ~l ->
      let g, blocks = Subst.uniform_or ~universe ~l f in
      ledgered_count ~oracle ~arity:l
        ~attrs:[ ("lemma", Trace.Str "3.3") ]
        ~vars:(List.concat_map snd blocks) g)

(* Lemma 3.2 over Lemma 3.3: the full Shap(C) ≤P #~C chain.  Following the
   proof, the #_*-oracle is consulted on the isomorphic copy ~F and on the
   zapped functions ~F' rather than on F itself — both live in ~C. *)
let shap_via_count_oracle ~oracle ~vars f =
  let universe, sorted = sorted_universe ~vars f in
  let n = List.length sorted in
  Obs.with_span "pipeline.shap_via_count_oracle"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  let kcount_full =
    Obs.phase "lemma3.2.full" ~attrs:[ ("n", Trace.Int n) ];
    let tilde_f, blocks = Subst.isomorphic_copy ~universe f in
    kcounts_via_count_oracle ~oracle ~vars:(List.concat_map snd blocks)
      tilde_f
  in
  let sorted_arr = Array.of_list sorted in
  let kcount_drop pos =
    let i = sorted_arr.(pos) in
    Obs.phase "lemma3.2.drop" ~attrs:[ ("i", Trace.Int i) ];
    let tilde_f', blocks = Subst.zap ~universe ~zero:(Vset.singleton i) f in
    kcounts_via_count_oracle ~oracle ~vars:(List.concat_map snd blocks)
      tilde_f'
  in
  let values = Reductions.shap_via_kcounts ~n ~kcount_full ~kcount_drop in
  List.mapi (fun pos i -> (i, values.(pos))) sorted

(* Lemma 3.4: #C ≤P Shap(~C).  [sorted_arr] is the sorted universe as an
   array, so the n² (l, pos) consultations index it in O(1) instead of
   walking the list on every call. *)
let shap_subst_of_oracle ~oracle ~universe ~sorted_arr f ~l ~pos =
  let i = sorted_arr.(pos) in
  let g, z, blocks = Subst.uniform_or_except ~universe ~l ~keep:i f in
  let gvars = List.concat_map snd blocks in
  match
    List.assoc_opt z
      (ledgered_shap ~oracle ~arity:l
         ~attrs:[ ("lemma", Trace.Str "3.4") ]
         ~vars:gvars g)
  with
  | Some v -> v
  | None -> failwith "Pipeline: Shapley oracle did not report Z_i"

let kcounts_via_shap_oracle ~oracle ~vars f =
  let universe, sorted = sorted_universe ~vars f in
  let n = List.length sorted in
  let f_zero = Formula.eval_set Vset.empty f in
  Obs.with_span "pipeline.kcounts_via_shap_oracle" @@ fun () ->
  Reductions.kcounts_via_shap ~n ~f_zero
    ~shap_subst:
      (shap_subst_of_oracle ~oracle ~universe
         ~sorted_arr:(Array.of_list sorted) f)

let count_via_shap_oracle ~oracle ~vars f =
  Kvec.total (kcounts_via_shap_oracle ~oracle ~vars f)

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

let ledgered_prob ~oracle ~theta ~vars f =
  if not (Obs.observing ()) then oracle.prob ~theta ~vars f
  else
    Obs.call ~oracle:oracle.pqe_name ~n:(List.length vars)
      ~size:(Formula.size f)
      ~attrs:[ ("lemma", Trace.Str "pqe") ]
      (fun () -> oracle.prob ~theta ~vars f)

let kcounts_via_pqe_oracle ~oracle ~vars f =
  let _, sorted = sorted_universe ~vars f in
  let n = List.length sorted in
  Obs.with_span "pipeline.kcounts_via_pqe_oracle" @@ fun () ->
  Reductions.kcounts_via_probability ~n ~prob:(fun ~theta ->
      ledgered_prob ~oracle ~theta ~vars f)

let shap_via_pqe_oracle ~oracle ~vars f =
  let _, sorted = sorted_universe ~vars f in
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

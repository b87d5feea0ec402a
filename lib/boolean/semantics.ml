(** Brute-force semantics: model enumeration and equivalence checking.

    These are exponential-time reference procedures used by tests and by the
    exponential baselines in the benchmarks; the polynomial algorithms live
    in [Shapmc_counting] and [Shapmc_circuits].  All enumeration is over an
    explicit, ordered variable universe: the paper's counts [#F], [#_k F]
    are relative to the [n] declared variables, which may strictly include
    the variables occurring in the formula. *)

(** Hard cap on enumeration width, to fail fast instead of hanging. *)
let max_enum_vars = 26

let check_width n =
  if n > max_enum_vars then
    invalid_arg
      (Printf.sprintf "Semantics: %d variables exceeds brute-force cap %d" n
         max_enum_vars)

(** [make_eval ~vars f] is [fun mask -> f] under the valuation that sets
    [vars.(i)] true iff bit [i] of [mask] is set.  The variable-to-bit
    index is built once and shared across every mask, so enumeration
    loops stay allocation-free per assignment. *)
let make_eval ~vars f =
  let idx = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) vars;
  fun mask ->
    Formula.eval
      (fun v ->
         match Hashtbl.find_opt idx v with
         | Some i -> mask land (1 lsl i) <> 0
         | None -> false)
      f

(** [fold_model_masks ~vars f init step] folds [step] over all models of
    [f], passed as bit masks over [vars] — the allocation-free core of
    {!fold_models}. *)
let fold_model_masks ~vars f init step =
  let n = Array.length vars in
  check_width n;
  let ev = make_eval ~vars f in
  let acc = ref init in
  for mask = 0 to (1 lsl n) - 1 do
    if ev mask then acc := step !acc mask
  done;
  !acc

(** [fold_models ~vars f init step] folds [step] over all models of [f]
    within the universe [vars]; models are passed as variable sets. *)
let fold_models ~vars f init step =
  let n = Array.length vars in
  fold_model_masks ~vars f init (fun acc mask ->
      let s = ref Vset.empty in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then s := Vset.add vars.(i) !s
      done;
      step acc !s)

(** [models ~vars f] lists all models as variable sets (exponential!). *)
let models ~vars f =
  List.rev (fold_models ~vars f [] (fun acc s -> s :: acc))

(** [equivalent f g] checks [f ≡ g] by enumerating the union of their
    variables.  @raise Invalid_argument beyond {!max_enum_vars}. *)
let equivalent f g =
  let universe = Vset.union (Formula.vars f) (Formula.vars g) in
  let vars = Array.of_list (Vset.elements universe) in
  let n = Array.length vars in
  check_width n;
  let ev_f = make_eval ~vars f and ev_g = make_eval ~vars g in
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    if ev_f mask <> ev_g mask then ok := false
  done;
  !ok

(** [tautology f] holds iff [f] is true under every valuation. *)
let tautology f = equivalent f Formula.tru

(** [satisfiable f] holds iff [f] has a model. *)
let satisfiable f = not (equivalent f Formula.fls)

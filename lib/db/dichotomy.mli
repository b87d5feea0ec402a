(** The dichotomy solver (Theorem 5.1).

    Classifies a self-join-free CQ and dispatches Shapley computation:
    hierarchical queries go through the polynomial safe-plan circuit
    (tractable side); non-hierarchical ones fall back to compiling the
    lineage DNF with the general d-DNNF compiler — correct on every input
    but exponential in the worst case, as Theorem 5.1's hardness side says
    any correct algorithm must be (unless FP = #P). *)

type classification =
  | Hierarchical  (** Shapley computation in FP *)
  | Non_hierarchical of string * string
      (** witness pair of variables violating the hierarchy condition *)
  | Has_self_joins  (** outside the dichotomy's scope *)
  | Has_negation
      (** negated atoms: outside the Theorem 5.1 dichotomy (cf. Reshef et
          al. [29]); solved by compilation *)

type solver =
  | Safe_plan_circuit
  | Compiled_dnf

val classify : Cq.t -> classification

(** [circuit db q] is the lineage circuit of [q] over [db] and the solver
    that built it: {!Safe_plan.lineage_circuit} when [classify q] is
    [Hierarchical], otherwise the lineage compiled by [Compile.compile].
    It is the one Theorem 5.1 dispatch: the solvers below and
    [Hardness]'s reference oracle all solve on its circuit. *)
val circuit : Database.t -> Cq.t -> Circuit.node * solver

(** [shapley db q] computes the Shapley value of every endogenous tuple
    (keyed by lineage variable), reporting which solver ran.  It caches
    nothing: it is the reference {!shapley_cached} is checked against. *)
val shapley : Database.t -> Cq.t -> (int * Rat.t) list * solver

(** [shapley_cached ~cache db q] is {!shapley} routed through the
    serving cache: the full answer lives under
    {!Db_fingerprint.result_key}, so a mutated database misses by
    construction.  A miss compiles the circuit and solves it with one
    {!Circuit_shapley.shap_direct} pass; the compilation is ledgered as
    the [cache.compile] oracle call.  The solver is [classify q]'s, hit
    or miss.  [on_miss wrap] wraps the whole solve on a miss — servers
    use it to ledger the solve as an oracle call, so a warm request is
    observably oracle-free.  [render fact value] renders one fact's
    element once, on fill ({!Cache.shapley_all}).  [key], when given,
    must be [Db_fingerprint.result_key db q]: a caller whose database
    does not change computes it once and passes it, instead of paying
    the digest on every call.  Answers ({!Cache.bindings}) are
    bit-identical to {!shapley} on every input. *)
val shapley_cached :
  ?on_miss:((unit -> (int * Rat.t) list) -> (int * Rat.t) list) ->
  ?render:(int -> Rat.t -> string) ->
  ?key:string ->
  cache:Cache.t -> Database.t -> Cq.t -> Cache.answer * solver

(** [shapley_brute db q] is the exponential Eq. (2) reference on the
    lineage, for cross-checking (capped at 26 tuples). *)
val shapley_brute : Database.t -> Cq.t -> (int * Rat.t) list

(** [count_models db q] is [#F_{Q,D}] over all endogenous tuples, via the
    same dispatch. *)
val count_models : Database.t -> Cq.t -> Bigint.t * solver

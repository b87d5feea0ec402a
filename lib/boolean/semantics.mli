(** Brute-force semantics: model enumeration and equivalence checking.

    Exponential-time reference procedures used by the tests and by the
    exponential baselines in the benchmarks; the polynomial algorithms
    live in [Shapmc_counting] and [Shapmc_circuits].  All enumeration is
    over an explicit, ordered variable universe. *)

(** Hard cap on enumeration width, to fail fast instead of hanging. *)
val max_enum_vars : int

(** [fold_model_masks ~vars f init step] folds [step] over all models of
    [f], passed as bit masks over [vars] (bit [i] set means [vars.(i)]
    true).  The allocation-free core of {!fold_models}: nothing is
    allocated per assignment beyond what [Formula.eval] itself does.
    @raise Invalid_argument beyond {!max_enum_vars} variables. *)
val fold_model_masks :
  vars:int array -> Formula.t -> 'a -> ('a -> int -> 'a) -> 'a

(** [fold_models ~vars f init step] folds [step] over all models of [f]
    within the universe [vars]; models are passed as variable sets.
    @raise Invalid_argument beyond {!max_enum_vars} variables. *)
val fold_models :
  vars:int array -> Formula.t -> 'a -> ('a -> Vset.t -> 'a) -> 'a

(** [models ~vars f] lists all models as variable sets (exponential!). *)
val models : vars:int array -> Formula.t -> Vset.t list

(** [equivalent f g] checks [f ≡ g] by enumerating the union of their
    variables.  @raise Invalid_argument beyond {!max_enum_vars}. *)
val equivalent : Formula.t -> Formula.t -> bool

(** [tautology f] holds iff [f] is true under every valuation. *)
val tautology : Formula.t -> bool

(** [satisfiable f] holds iff [f] has a model. *)
val satisfiable : Formula.t -> bool

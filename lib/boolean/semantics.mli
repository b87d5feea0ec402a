(** Brute-force semantics: model enumeration and equivalence checking.

    Exponential-time reference procedures used by the tests and by the
    exponential baselines in the benchmarks; the polynomial algorithms
    live in [Shapmc_counting] and [Shapmc_circuits].  All enumeration is
    over an explicit, ordered variable universe. *)

(** [fold_model_masks ~vars f init step] folds [step] over all models of
    [f], passed as bit masks over [vars] (bit [i] set means [vars.(i)]
    true).  Nothing is allocated per assignment beyond what
    [Formula.eval] itself does.
    @raise Invalid_argument beyond 26 variables. *)
val fold_model_masks :
  vars:int array -> Formula.t -> 'a -> ('a -> int -> 'a) -> 'a

(** [models ~vars f] lists all models as variable sets (exponential!). *)
val models : vars:int array -> Formula.t -> Vset.t list

(** [equivalent f g] checks [f ≡ g] by enumerating the union of their
    variables.  @raise Invalid_argument beyond 26. *)
val equivalent : Formula.t -> Formula.t -> bool

(** [tautology f] holds iff [f] is true under every valuation. *)
val tautology : Formula.t -> bool

(** [satisfiable f] holds iff [f] has a model. *)
val satisfiable : Formula.t -> bool

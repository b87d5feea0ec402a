(** Unions of conjunctive queries — the paper's future-work direction.

    The conclusion conjectures that the OR-substitution technique extends
    the Shapley dichotomy to UCQs (where safety is the Dalvi–Suciu
    condition rather than hierarchy).  This module provides the
    infrastructure to experiment with that: UCQ lineage, Shapley values
    via compilation (always correct, exponential in the worst case), and
    a sufficient polynomial case — disjuncts that are positive,
    hierarchical, self-join-free and touch pairwise disjoint endogenous
    relations, whose lineages combine by a variable-disjoint OR.  Every
    disjunct must be positive: a negated atom is rejected with
    [Invalid_argument]. *)

type t = { disjuncts : Cq.t list }

val make : Cq.t list -> t

(** [lineage db u] is the union of the disjunct lineages.
    @raise Invalid_argument if a disjunct has negated atoms: a union's
    lineage here is a positive DNF ({!Lineage.lineage}). *)
val lineage : Database.t -> t -> Nf.pdnf

val lineage_formula : Database.t -> t -> Formula.t

(** Which solver handled the instance. *)
type solver =
  | Disjoint_safe_plans  (** polynomial: disjoint-OR of safe plans *)
  | Compiled_union  (** general fallback via the d-DNNF compiler *)

(** [shapley db u] computes every endogenous tuple's Shapley value for
    the union, dispatching to the polynomial case when it applies.
    @raise Invalid_argument if a disjunct has negated atoms. *)
val shapley : Database.t -> t -> (int * Rat.t) list * solver

(** [probability db u ~weights] — PQE for the union, same dispatch.
    @raise Invalid_argument if a disjunct has negated atoms. *)
val probability : Database.t -> t -> weights:(int -> Rat.t) -> Rat.t

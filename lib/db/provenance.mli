(** Semiring provenance for conjunctive queries (Green–Karvounarakis–
    Tannen [16]).

    Section 5 rests on the observation that the lineage — the Boolean
    specialization of the provenance polynomial — of a CQ is a Boolean
    function.  This module provides the general picture: query evaluation
    annotated in any commutative semiring, with the Boolean lineage,
    counting, probability and tropical semirings as instances, plus the
    universal polynomial semiring [N[X]] whose evaluation homomorphisms
    recover all the others.  The test suite checks the homomorphism
    property (specializing [N[X]] commutes with evaluation) — the
    factorization theorem of [16] on our fragment. *)

(** A commutative semiring: ([zero], [plus]) and ([one], [times]) with the
    usual laws; [zero] annihilates. *)
module type SEMIRING = sig
  type t

  val zero : t
  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Provenance polynomials [N[X]]: multivariate polynomials with natural
    coefficients over the lineage variables, in a normalized monomial-map
    representation. *)
module Polynomial : sig
  include SEMIRING

  (** [var v] is the polynomial [x_v]. *)
  val var : int -> t

  (** [eval sr h p] is the image of [p] under the homomorphism sending
      [x_v] to [h v], into the semiring [sr]. *)
  val eval : (module SEMIRING with type t = 'a) -> (int -> 'a) -> t -> 'a

  (** [monomials p] lists [(variable -> exponent map as assoc list,
      coefficient)] pairs, sorted. *)
  val monomials : t -> ((int * int) list * int) list
end

(** The Boolean lineage semiring: formulas modulo nothing (syntactic),
    [plus] = ∨, [times] = ∧.  Evaluating a query here and taking
    [Formula] equivalence recovers [Lineage]. *)
module Boolean_semiring : SEMIRING with type t = Formula.t

(** Natural-number counting semiring ([Bigint]): annotation = number of
    derivations. *)
module Counting : SEMIRING with type t = Bigint.t

(** Probability semiring on rationals — correct for derivations that do
    not share tuples (used on hierarchical plans); exposed mainly for the
    homomorphism tests. *)
module Probability : SEMIRING with type t = Rat.t

(** Tropical (min, +) semiring over int costs with infinity: annotation =
    cost of the cheapest derivation. *)
module Tropical : sig
  include SEMIRING

  val of_int : int -> t
  val infinity : t
  val to_int_opt : t -> int option
end

(** [eval (module S) db q ~annotate] evaluates the Boolean CQ [q] over
    [db], annotating each endogenous tuple [t] (lineage variable [v]) with
    [annotate v] and each exogenous tuple with [S.one]; returns the
    semiring annotation of the query answer: the sum, in the join's
    search order, over satisfying assignments of the product of the
    tuple annotations in atom order.  It is a fold over
    {!Lineage.fold}, the join that builds the lineage.
    @raise Invalid_argument if [q] does not match the schema or has
    negated atoms (a negated query's lineage is
    {!Lineage.lineage_clauses}). *)
val eval :
  (module SEMIRING with type t = 'a) ->
  Database.t ->
  Cq.t ->
  annotate:(int -> 'a) ->
  'a

(** [provenance_polynomial db q] annotates every endogenous tuple with its
    own variable in [N[X]] — the most general provenance.
    @raise Invalid_argument as {!eval}. *)
val provenance_polynomial : Database.t -> Cq.t -> Polynomial.t

(** [derivation_count db q] is the number of satisfying assignments
    (evaluation in {!Counting} with all annotations 1).
    @raise Invalid_argument as {!eval}. *)
val derivation_count : Database.t -> Cq.t -> Bigint.t

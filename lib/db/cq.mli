(** Boolean conjunctive queries (Section 5.1).

    [Q = ∃x ⋀_j R_j(y_j)] with [y_j] tuples of query variables and
    constants.  All query variables are implicitly existential (Boolean
    query).  Query variables are strings, written lowercase in the paper;
    they are unrelated to the integer Boolean variables of lineage. *)

type term =
  | V of string  (** query variable *)
  | C of Value.t  (** constant *)

type atom = {
  rel : string;
  args : term array;
  negated : bool;
      (** a negated atom [¬R(y)] requires the matching tuple to be absent;
          following Reshef–Kimelfeld–Livshits, negation makes the lineage a
          general (non-positive) DNF, so only the compilation-based solvers
          apply *)
}

type t = { atoms : atom list }

val make : atom list -> t

(** [atom rel args] builds a positive atom. *)
val atom : string -> term list -> atom

(** [negated_atom rel args] builds a negated atom [¬rel(args)]. *)
val negated_atom : string -> term list -> atom

(** [is_positive q] holds iff no atom is negated. *)
val is_positive : t -> bool

(** [is_safe_negation q]: every variable of a negated atom also occurs in
    some positive atom (range restriction — required for lineage
    construction). *)
val is_safe_negation : t -> bool

(** [variables q] in first-occurrence order, without duplicates. *)
val variables : t -> string list

(** [at q x] is the paper's [at(x)]: the 0-based indices of the atoms
    containing variable [x] (indices rather than atoms so that self-join
    duplicates stay distinct). *)
val at : t -> string -> int list

(** [is_hierarchical q]: for all variables [x], [y] the sets [at(x)],
    [at(y)] are disjoint or one contains the other. *)
val is_hierarchical : t -> bool

(** [is_self_join_free q]: no relation name occurs in two atoms. *)
val is_self_join_free : t -> bool

(** [check_against q db] validates relation names and arities.
    @raise Invalid_argument with a description on mismatch. *)
val check_against : t -> Database.t -> unit

(** [witness_non_hierarchical q] returns a pair of variables violating the
    hierarchy condition, if any. *)
val witness_non_hierarchical : t -> (string * string) option

(** [pp] prints [q] in the syntax of [Db_parser.parse_query], constants
    by [Value.literal] (e.g. [E(y, 3), !S(y, 'a')]): distinct constants
    print distinctly, and [parse_query (to_string q)] equals [q] when no
    constant prints with a [','] or [')']. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

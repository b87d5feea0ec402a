(** Lineage of a Boolean CQ over a database (Section 5.1).

    The lineage [F_{Q,D}] is the positive DNF over the lineage variables of
    the endogenous tuples: one clause per satisfying assignment of the
    query variables, containing the variables of the endogenous tuples the
    assignment uses (exogenous tuples contribute [true], missing tuples
    kill the assignment).  Computed by a backtracking join rather than the
    definitional [adom^{|x|}] enumeration — same function, polynomial data
    complexity with a small constant.

    That join is the only one in the library: the lineage functions
    below are folds over it. *)

(** [lineage db q] is [F_{Q,D}] as a positive DNF (clauses deduplicated,
    not otherwise minimized — per the definition, one clause per
    assignment, so absorbing clauses may coexist; use
    [Nf.pdnf_minimize] for the minimal form): the positive parts of
    {!lineage_clauses}.
    @raise Invalid_argument if [q] contains negated atoms (use
    {!lineage_clauses}) or does not match the schema of [db]. *)
val lineage : Database.t -> Cq.t -> Nf.pdnf

(** [lineage_clauses db q] is the general lineage as a DNF with positive
    and negative literals, supporting safely negated atoms
    (Reshef–Kimelfeld–Livshits): a satisfying assignment of the positive
    atoms contributes the positive literals of the endogenous tuples it
    uses and the negative literals of the endogenous tuples its negated
    atoms must avoid; assignments whose negated atom hits a present
    exogenous tuple, and internally contradictory clauses, are dropped.
    Clauses are deduplicated and sorted.  For positive queries every
    negative part is empty and the positive parts are {!lineage}.
    @raise Invalid_argument on schema mismatch or unsafe negation (a
    negated atom with a variable bound by no positive atom). *)
val lineage_clauses : Database.t -> Cq.t -> Nf.clause list

(** [lineage_formula db q] is [Nf.dnf_to_formula] of {!lineage_clauses}
    ([false] when no assignment satisfies [q], [true] when one uses only
    exogenous tuples). *)
val lineage_formula : Database.t -> Cq.t -> Formula.t

(** [boolean_answer db q] is [Q(D)] with all endogenous tuples present. *)
val boolean_answer : Database.t -> Cq.t -> bool

(** Stretching of queries and databases (Definition 10, Appendix B).

    Stretching a CQ adds one fresh existential variable in first position
    of every endogenous atom; at the lineage level this captures
    OR-substitution (Lemma 12), which the database constructions below make
    executable:

    - {!stretch_query} is Definition 10;
    - {!stretch_database_dummy} (Appendix B.1.1) pads endogenous tuples
      with a dummy value so that [F_{~Q,~D} = F_{Q,D}] — the direction
      [C_Q ⊆ C_~Q];
    - {!or_substituted_db} (Appendix B.2.2) replaces each endogenous tuple
      by a block of copies with fresh first-attribute values and fresh
      lineage variables, so that [F_{~Q,~D}] is equivalent to
      [F_{Q,D}[theta]] for the OR-substitution [theta] with those blocks —
      the heart of the commutative diagram of Section 5.2;
    - {!collapse_q0} (Appendix B.1.2) folds a stretched database for the
      canonical non-hierarchical query [Q0 = R(x), S(x,y), T(y)] back into
      a database for [Q0] itself using composite values — Claim 5.2
      ([C_~Q0 = C_Q0]), the step that makes the hardness proof close. *)

(** [stretch_query ~is_endogenous q] adds fresh variables [z$1, z$2, ...]
    (names chosen fresh w.r.t. [q]'s variables).  Returns the stretched
    query and the list of added variable names, one per endogenous atom
    in order.  Negated exogenous atoms are kept as they are.
    @raise Invalid_argument on a negated endogenous atom: Definition 10
    is for positive queries, and its fresh variable would occur in no
    positive atom. *)
val stretch_query : is_endogenous:(string -> bool) -> Cq.t -> Cq.t * string list

(** [stretch_database_dummy db] pads every endogenous tuple with the dummy
    first value [d], preserving lineage variables.  Exogenous relations
    are unchanged. *)
val stretch_database_dummy : Database.t -> Database.t

(** [or_substituted_db ~widths db] builds the stretched database of
    Appendix B.2.2: the endogenous tuple with lineage variable [v] becomes
    [widths v] copies with fresh first-attribute values, carrying fresh
    lineage variables; returns the new database and the blocks (original
    variable → fresh variables), matching
    [Shapmc_boolean.Subst.or_subst ~widths] on the lineage.
    @raise Invalid_argument on negative widths. *)
val or_substituted_db :
  widths:(int -> int) -> Database.t -> Database.t * Subst.blocks

(** [q0 ()] is the canonical smallest non-hierarchical query
    [R^n(x), S^x(x,y), T^n(y)] (Eq. 10); its stretching is Eq. (11). *)
val q0 : unit -> Cq.t

(** [declare_q0_schema db] declares [R] (endo, 1), [S] (exo, 2),
    [T] (endo, 1). *)
val declare_q0_schema : Database.t -> unit

(** [collapse_q0 db] takes a database over the {e stretched} [Q0] schema
    ([R]: endo arity 2, [S]: exo arity 2, [T]: endo arity 2) and builds
    the Appendix B.1.2 database over the original [Q0] schema with
    composite values, preserving lineage variables:
    [F_{~Q0, db} = F_{Q0, collapse_q0 db}]. *)
val collapse_q0 : Database.t -> Database.t

(** [or_substituted_q0_db ~widths db] composes {!or_substituted_db} with
    {!collapse_q0}: a database for [Q0] itself whose lineage is (equivalent
    to) the OR-substituted lineage of [Q0] over [db] — the executable
    content of Claim 5.2. *)
val or_substituted_q0_db :
  widths:(int -> int) -> Database.t -> Database.t * Subst.blocks

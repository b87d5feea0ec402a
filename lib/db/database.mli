(** Databases with endogenous and exogenous relations (Section 5.1).

    Endogenous tuples are the players: each carries a distinct Boolean
    lineage variable [v(t)]; exogenous tuples are facts taken for granted
    and contribute no variable.  A database is a mutable builder — create,
    declare relations, insert tuples — plus read-only accessors used by
    lineage construction, stretching and the safe-plan evaluator.

    Each relation keeps its rows twice: a list in insertion order, which
    {!tuples} reads, and a hash index on the tuple's values, which
    {!find_tuple} probes.  A lookup, and so {!insert}'s duplicate check,
    costs one hash of the tuple instead of a scan of the relation, and
    loading a relation is linear in its size. *)

type kind =
  | Endogenous
  | Exogenous

type t

(** One stored tuple: its values and, for endogenous relations, its
    lineage variable. *)
type stored = { values : Value.t array; lvar : int option }

val create : unit -> t

(** [declare db name ~kind ~arity] declares a fresh relation.
    @raise Invalid_argument if [name] is already declared or [arity < 0]. *)
val declare : t -> string -> kind:kind -> arity:int -> unit

(** [insert db name values] inserts a tuple, assigning the next lineage
    variable when the relation is endogenous; returns that variable.
    Duplicate tuples are rejected (set semantics).
    @raise Invalid_argument on arity mismatch, unknown relation or
    duplicate. *)
val insert : t -> string -> Value.t array -> int option

(** [insert_with_var db name values ~lvar] inserts an endogenous tuple
    with an explicit lineage variable (used by the Appendix B database
    transformations, which must preserve variable identity).
    @raise Invalid_argument if [lvar] is already used. *)
val insert_with_var : t -> string -> Value.t array -> lvar:int -> unit

(** [remove db name values] deletes the tuple if present, releasing its
    lineage variable; [true] iff it was there.  A removal, like an
    insert, changes the relation's content fingerprint, so the serving
    cache's keys for this database move with it.
    @raise Invalid_argument on unknown relation. *)
val remove : t -> string -> Value.t array -> bool

(** [digest db name compute] is relation [name]'s digest: [compute ()]
    on the first call after the relation last changed, the stored string
    on every later call.  [insert], [insert_with_var] and [remove] drop
    it; a {!copy} starts with its source's and drops only its own.  So a
    relation is digested once per version — once per process in the
    daemon, which never writes.  [compute] must depend on the relation
    alone: {!Db_fingerprint.relation} is its one caller.
    @raise Not_found for unknown relations. *)
val digest : t -> string -> (unit -> string) -> string

(** [kind_of db name] / [arity_of db name].
    @raise Not_found for unknown relations. *)
val kind_of : t -> string -> kind

val arity_of : t -> string -> int

(** [relation_names db] in declaration order. *)
val relation_names : t -> string list

(** [tuples db name] in insertion order. *)
val tuples : t -> string -> stored list

(** [find_tuple db name values] is the stored tuple of [name] with
    exactly [values], if present: its [lvar] is [Some v] in an endogenous
    relation and [None] in an exogenous one.  It is the one ground-tuple
    lookup — {!remove}, {!mem} and the negated atoms of [Lineage] go
    through it, and {!insert}'s duplicate check probes the same index —
    and it costs one probe of the relation's index, not a scan.
    @raise Not_found for unknown relations. *)
val find_tuple : t -> string -> Value.t array -> stored option

(** [mem db name values] tests tuple presence ({!find_tuple}). *)
val mem : t -> string -> Value.t array -> bool

(** [active_domain db] is the set (sorted, deduplicated) of all values
    occurring anywhere. *)
val active_domain : t -> Value.t list

(** [lineage_vars db] is the set of all lineage variables, i.e. the
    variable universe of any lineage over [db]. *)
val lineage_vars : t -> Vset.t

(** [tuple_of_var db v] retrieves the endogenous tuple carrying variable
    [v].  @raise Not_found if no such tuple. *)
val tuple_of_var : t -> int -> string * Value.t array

(** [copy db] is an independent deep copy (same lineage variables):
    later inserts and removals in either database leave the other's rows
    and index as they were. *)
val copy : t -> t

val pp : Format.formatter -> t -> unit

(** Cache-key derivation for (query, database) pairs.

    The serving cache ({!Shapmc_cache.Cache}) is keyed on content, not
    identity, so equal workloads share entries and any mutation is an
    automatic miss.  Two keys matter, because the two cached artifacts
    depend on different slices of the database:

    - {!lineage_key} — what the compiled circuit depends on: the query
      text plus the content of exactly the relations the query mentions.
      Inserting into any {e other} relation leaves it unchanged, which
      is what "recompile only affected lineage" means.
    - {!result_key} — what the Shapley values additionally depend on:
      the universe of lineage variables spans {e every} endogenous
      relation (a fresh endogenous fact is a new player, value 0 for
      unrelated queries, and must appear in a full answer), so the
      result key folds in every endogenous relation's content.

    Invalidation tags are scoped by {!Database.id} — content keys make
    stale entries unreachable on their own; the tags let an explicit
    {!Dichotomy.invalidate} reclaim them eagerly. *)

(** Content fingerprint (hex) of one relation: kind, arity, tuples and
    their lineage variables, in insertion order.  Computed once per
    version of the relation and kept in the database
    ({!Database.digest}), so {!lineage_key} and {!result_key} re-hash
    only the relations changed since their last call. *)
val relation : Database.t -> string -> string

(** Fingerprint (hex) of the query text. *)
val query : Cq.t -> string

(** Relation names the query mentions, sorted and deduplicated. *)
val mentioned : Cq.t -> string list

(** Key of the compiled lineage circuit: query + mentioned relations. *)
val lineage_key : Database.t -> Cq.t -> string

(** Key of a full Shapley answer: {!lineage_key} + every endogenous
    relation (the player universe). *)
val result_key : Database.t -> Cq.t -> string

(** [relation_tag db r] — tag carried by every cache entry whose
    lineage mentions relation [r] of this database instance. *)
val relation_tag : Database.t -> string -> string

(** [db_tag db] — tag carried by every cached {e result} of this
    database instance (any endogenous mutation perturbs the universe). *)
val db_tag : Database.t -> string

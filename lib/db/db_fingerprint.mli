(** Cache-key derivation for (query, database) pairs.

    The serving cache ({!Shapmc_cache.Cache}) is keyed on content, not
    identity, so equal workloads share entries and any mutation is an
    automatic miss.  A whole Shapley answer depends on the query text,
    the content of the relations the query mentions (its lineage) and
    the content of every endogenous relation: the universe of lineage
    variables spans them all (a fresh endogenous fact is a new player,
    value 0 for unrelated queries, and must appear in a full answer).
    {!result_key} folds in exactly that; an exogenous relation the
    query does not mention leaves it unchanged. *)

(** Content fingerprint (hex) of one relation: kind, arity, tuples and
    their lineage variables, in insertion order.  Computed once per
    version of the relation and kept in the database
    ({!Database.digest}), so {!result_key} re-hashes only the relations
    changed since its last call. *)
val relation : Database.t -> string -> string

(** Fingerprint (hex) of the query text. *)
val query : Cq.t -> string

(** Key of a full Shapley answer: the digest of the query and the
    relations it mentions (the lineage), then every endogenous relation
    (the player universe). *)
val result_key : Database.t -> Cq.t -> string

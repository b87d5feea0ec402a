(** The serving cache: compiled circuits and Shapley answers.

    The paper's database pipeline answers every fact's Shapley value
    through the same compiled lineage, so a long-running service should
    pay for compilation and the circuit pass once per query content, not
    once per request.  A [Cache.t] holds two tiers, each an {!Lru}
    guarded by {!Single_flight} so concurrent misses of one key compute
    exactly once:

    - {b circuit} — compiled d-DNNF (or safe-plan circuit) per query
      lineage, keyed on a content fingerprint of the query and the
      relations it mentions;
    - {b shapley} — per-(query, fact) Shapley rationals plus one meta
      entry per query recording the fact order, so a full
      [/v1/shapley/all] answer reassembles from per-fact entries and a
      partial eviction degrades to a re-solve, never to a wrong answer.

    Key derivation lives with the caller ({!Shapmc_db.Db_fingerprint},
    [Dichotomy]): this module only promises that equal keys mean equal
    computations.  Entries carry caller-chosen tags; {!invalidate_tag}
    is the insert/delete hook — drop everything whose lineage mentions a
    mutated relation while unrelated entries survive.

    Every lookup is instrumented on {!Metrics.default}:
    [cache_hits]/[cache_misses]/[cache_evictions]/[cache_invalidations]
    counters and [cache_lookup_seconds] histograms labelled by tier
    (leader misses include the fill time), and [cache_entries] /
    [cache_fill] gauges.  All operations are domain-safe. *)

type t

val default_circuits : int
(** 128 compiled circuits. *)

val default_results : int
(** 8192 per-fact rationals (and as many query meta entries). *)

(** [create ()] — capacities per tier, all ≥ 1. *)
val create : ?circuits:int -> ?results:int -> unit -> t

(** {1 Tiered get-or-compute}

    Each returns the cached value for [key] or runs the thunk once
    (single-flight across domains), stores the result under [key] with
    [tags], and returns it. *)

val circuit :
  t -> key:string -> ?tags:string list -> (unit -> Circuit.node) ->
  Circuit.node

(** [shapley_all t ~key solve] — the solve returns all values in fact
    order; a hit requires the meta entry and {e every} per-fact rational
    to still be resident. *)
val shapley_all :
  t -> key:string -> ?tags:string list -> (unit -> (int * Rat.t) list) ->
  (int * Rat.t) list

(** {1 Invalidation} *)

(** [invalidate_tag t tag] drops every entry tagged [tag] across both
    tiers; returns the number of entries dropped. *)
val invalidate_tag : t -> string -> int

(** {1 Introspection} *)

type tier_stats = {
  ts_hits : int;  (** lookups answered from the tier (incl. flight joins) *)
  ts_misses : int;  (** leader computations *)
  ts_evictions : int;  (** capacity evictions *)
  ts_entries : int;
  ts_capacity : int;
}

(** Per-tier statistics, keyed ["circuit"] and ["shapley"].  The
    shapley tier counts logical query-level lookups; its entries, and so
    its evictions (here and on [cache_evictions]), are the per-fact
    rationals. *)
val stats : t -> (string * tier_stats) list

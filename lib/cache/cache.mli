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
    - {b shapley} — one entry per full answer: the fact ids, their
      Shapley rationals and, for callers that render, each fact's
      rendered element.  The entry weighs its fact count against the
      tier's capacity, so the tier holds at most [results] facts, and an
      answer is resident whole or not at all.

    Key derivation lives with the caller ({!Shapmc_db.Db_fingerprint},
    [Dichotomy]): this module only promises that equal keys mean equal
    computations.  Entries carry caller-chosen tags; {!invalidate_tag}
    is the insert/delete hook — drop everything whose lineage mentions a
    mutated relation while unrelated entries survive.

    Every lookup is instrumented on {!Metrics.default}:
    [cache_hits]/[cache_misses]/[cache_evictions]/[cache_invalidations]
    counters and [cache_lookup_seconds] histograms labelled by tier
    (leader misses include the fill time), [cache_entries] /
    [cache_fill] gauges, and a [cache_bytes{tier="shapley"}] gauge: the
    bytes of rendered elements resident.  All operations are
    domain-safe. *)

type t

val default_circuits : int
(** 128 compiled circuits. *)

val default_results : int
(** 8192 facts, summed over the resident answers. *)

(** [create ()] — capacities per tier, all ≥ 1. *)
val create : ?circuits:int -> ?results:int -> unit -> t

(** {1 Tiered get-or-compute}

    Each returns the cached value for [key] or runs the thunk once
    (single-flight across domains), stores the result under [key] with
    [tags], and returns it. *)

val circuit :
  t -> key:string -> ?tags:string list -> (unit -> Circuit.node) ->
  Circuit.node

(** A full Shapley answer, in ascending fact order. *)
type answer = private {
  facts : int array;  (** fact ids, ascending *)
  values : Rat.t array;  (** [values.(i)] is fact [facts.(i)]'s value *)
  elements : string array;
      (** [elements.(i)] is [render facts.(i) values.(i)]; empty when the
          answer was stored without [render] *)
}

(** [answer]'s [(fact, value)] pairs, in fact order. *)
val bindings : answer -> (int * Rat.t) list

(** [shapley_all t ~key ?render solve] — [solve] returns all values in
    ascending fact order.  The single-flight leader renders each fact's
    element with [render] once, on fill; a hit renders nothing.  A
    caller passing [render] never hits an answer stored without it, and
    every caller passing it must render equal keys alike. *)
val shapley_all :
  t -> key:string -> ?tags:string list -> ?render:(int -> Rat.t -> string) ->
  (unit -> (int * Rat.t) list) -> answer

(** {1 Invalidation} *)

(** [invalidate_tag t tag] drops every entry tagged [tag] across both
    tiers; returns the number dropped: circuits, plus the facts of the
    dropped answers. *)
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
    its evictions (here and on [cache_evictions]), count the facts of
    the answers they hold. *)
val stats : t -> (string * tier_stats) list

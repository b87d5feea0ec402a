(** The serving cache: whole Shapley answers, keyed on content.

    The paper's database pipeline answers every fact's Shapley value in
    one Theorem 4.1 pass over the compiled lineage, so a long-running
    service should pay for compilation and that pass once per (query,
    database) content, not once per request.  A [Cache.t] is one {!Lru}
    of {!answer}s guarded by {!Single_flight}, so concurrent misses of
    one key compute exactly once.  An answer holds the fact ids, their
    Shapley rationals and, for callers that render, each fact's rendered
    element.  It weighs its fact count against the capacity, so the
    cache holds at most [results] facts, and an answer is resident whole
    or not at all.

    Key derivation lives with the caller ({!Shapmc_db.Db_fingerprint},
    [Dichotomy]): this module only promises that equal keys mean equal
    computations.  Keys are content, so a mutated database misses by
    construction, and its stale answers age out of the LRU.

    Every lookup is instrumented on {!Metrics.default}, every series
    labelled [tier="shapley"]: the [cache_hits] / [cache_misses] /
    [cache_evictions] counters and the [cache_lookup_seconds] histogram
    (leader misses include the fill time), the [cache_entries] /
    [cache_fill] gauges, and [cache_bytes]: the bytes of rendered
    elements resident.  Entries and evictions count facts.  All
    operations are domain-safe. *)

type t

val default_results : int
(** 8192 facts, summed over the resident answers. *)

(** [create ()] — [results], the capacity in facts, must be ≥ 1. *)
val create : ?results:int -> unit -> t

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

(** [shapley_all t ~key ?render solve] returns the answer cached under
    [key], or runs [solve] once (single-flight across domains), stores
    its answer under [key] and returns it.  [solve] returns all values
    in ascending fact order.  The single-flight leader renders each
    fact's element with [render] once, on fill; a hit renders nothing.
    A caller passing [render] never hits an answer stored without it,
    and every caller passing it must render equal keys alike. *)
val shapley_all :
  t -> key:string -> ?render:(int -> Rat.t -> string) ->
  (unit -> (int * Rat.t) list) -> answer

(** {1 Introspection} *)

type stats = {
  hits : int;  (** lookups answered from the cache (incl. flight joins) *)
  misses : int;  (** leader computations *)
  evicted : int;  (** facts evicted by capacity *)
  resident : int;  (** facts resident *)
  capacity : int;  (** the bound on [resident] *)
}

(** Counts since {!create}.  A lookup the single-flight re-probes counts
    once; [evicted] and [resident] count what [/metrics] counts. *)
val stats : t -> stats

(** A mutex-guarded LRU map from string keys to values.

    The building block of every {!Cache} tier: a hashtable over an
    intrusive doubly-linked recency list, so [find], [put] and [remove]
    are O(1) under one lock (domain-safe; values themselves must be
    immutable or independently synchronized — circuits, count vectors
    and rationals all are).

    Entries may carry {e tags} — opaque strings attached at {!put} time
    — and {!remove_tagged} drops every entry carrying a given tag: the
    invalidation primitive ("everything whose lineage mentions relation
    R of database 3").

    Entries have a {e weight} (default 1), and the capacity bounds the
    sum of the weights: the shapley tier weighs an answer by its fact
    count.  Hit / miss / eviction counters are cumulative over the
    structure's lifetime; evictions count weight. *)

type 'v t

(** [create ~capacity ()] — [capacity < 1] raises [Invalid_argument].
    [on_evict key weight] fires (under the lock — must not re-enter) for
    each capacity eviction, not for explicit removals or replacements. *)
val create :
  ?on_evict:(string -> int -> unit) -> capacity:int -> unit -> 'v t

(** The bound on the total weight. *)
val capacity : 'v t -> int

(** Number of entries. *)
val length : 'v t -> int

(** Sum of the entries' weights, at most {!capacity}. *)
val weight : 'v t -> int

(** [find t key] returns the value and marks it most-recently used. *)
val find : 'v t -> string -> 'v option

(** [put t ~weight key v] inserts or replaces (both mark [key]
    most-recently used), then evicts from the least-recently-used end
    until the total weight is within capacity.  An entry heavier than
    the capacity is evicted at once and displaces nothing.  [weight < 1]
    raises [Invalid_argument]. *)
val put : 'v t -> ?tags:string list -> ?weight:int -> string -> 'v -> unit

(** [remove t key] — [true] iff the key was present. *)
val remove : 'v t -> string -> bool

(** [remove_tagged t tag] drops every entry carrying [tag]; returns the
    weight dropped (the entry count when every weight is 1). O(n). *)
val remove_tagged : 'v t -> string -> int

val mem : 'v t -> string -> bool

(** [fold f acc t] folds [f] over the values, in no particular order,
    under the lock. *)
val fold : ('a -> 'v -> 'a) -> 'a -> 'v t -> 'a

(** Keys in recency order, most-recently used first. *)
val keys : 'v t -> string list

val hits : 'v t -> int
val misses : 'v t -> int

(** Evicted weight. *)
val evictions : 'v t -> int

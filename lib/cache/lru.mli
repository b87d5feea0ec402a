(** A mutex-guarded LRU map from string keys to values.

    The store behind {!Cache}: a hashtable over an intrusive
    doubly-linked recency list, so [find] and [put] are O(1) under one
    lock (domain-safe; values themselves must be immutable or
    independently synchronized — answers and rationals are).

    Entries have a {e weight} (default 1), and the capacity bounds the
    sum of the weights: the cache weighs an answer by its fact count. *)

type 'v t

(** [create ~capacity ()] — [capacity < 1] raises [Invalid_argument].
    [on_evict key weight] fires (under the lock — must not re-enter) for
    each capacity eviction, not for replacements. *)
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
val put : 'v t -> ?weight:int -> string -> 'v -> unit

val mem : 'v t -> string -> bool

(** [fold f acc t] folds [f] over the values, in no particular order,
    under the lock. *)
val fold : ('a -> 'v -> 'a) -> 'a -> 'v t -> 'a

(** Keys in recency order, most-recently used first. *)
val keys : 'v t -> string list

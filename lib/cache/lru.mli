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

    Hit / miss / eviction counters are cumulative over the structure's
    lifetime. *)

type 'v t

(** [create ~capacity ()] — [capacity < 1] raises [Invalid_argument].
    [on_evict key] fires (under the lock — must not re-enter) for each
    capacity eviction, not for explicit removals. *)
val create : ?on_evict:(string -> unit) -> capacity:int -> unit -> 'v t

val capacity : 'v t -> int

val length : 'v t -> int

(** [find t key] returns the value and marks it most-recently used. *)
val find : 'v t -> string -> 'v option

(** [put t key v] inserts or replaces (both mark [key] most-recently
    used), then evicts from the least-recently-used end past capacity. *)
val put : 'v t -> ?tags:string list -> string -> 'v -> unit

(** [remove t key] — [true] iff the key was present. *)
val remove : 'v t -> string -> bool

(** [remove_tagged t tag] drops every entry carrying [tag]; returns how
    many were dropped. O(n). *)
val remove_tagged : 'v t -> string -> int

val mem : 'v t -> string -> bool

(** Keys in recency order, most-recently used first. *)
val keys : 'v t -> string list

val hits : 'v t -> int
val misses : 'v t -> int
val evictions : 'v t -> int

(** Stable 64-bit FNV-1a fingerprints for cache keys.

    Cache keys must identify a computation by {e content}: the query
    text, the exact tuples of every relation its lineage can mention,
    the universe of lineage variables.  A fingerprint folds those
    strings into one 64-bit digest rendered as 16 hex characters, so
    keys stay short no matter how large the database grows, and two
    databases with identical content share cache entries.

    FNV-1a is not cryptographic; collisions are possible in principle
    but irrelevant at cache scale (the cache is an optimization keyed
    inside one process, and a collision costs correctness only if two
    live computations collide — 2^-64 per pair). *)

type t

(** The FNV-1a offset basis. *)
val empty : t

(** Fold a string into the digest, byte by byte. *)
val add_string : t -> string -> t

(** Fold an int (its decimal rendering, plus a separator — so
    [add_int h 1 |> add_int 12] differs from [add_int h 11 |> add_int 2]). *)
val add_int : t -> int -> t

(** 16 lowercase hex characters. *)
val to_hex : t -> string

(** [digest parts] folds every part (with separators) and renders hex:
    the one-shot form used for composite keys. *)
val digest : string list -> string


(** Keyed single-flight execution: concurrent callers of the same key
    share one computation.

    The first caller of a key becomes its {e leader} and runs the
    supplied thunk {e without holding any lock}; every caller that
    arrives while the flight is up blocks on a condition variable and
    receives the leader's result (or its exception, re-raised).  The
    flight is dropped as soon as the leader finishes, so a later caller
    starts fresh — the caller is expected to consult its cache again
    before recomputing (see {!Cache}).

    This is the replacement for the per-entry memo mutex the serving
    layer used to hold across a whole solve: distinct keys never
    contend, and a key's waiters park on a condvar instead of pinning a
    mutex. Re-entering [run] with the same key from inside its own
    leader thunk would deadlock — don't. *)

type 'v t

val create : unit -> 'v t

(** [run t key f] — leader executes [f ()]; joiners wait and share the
    leader's outcome. *)
val run : 'v t -> string -> (unit -> 'v) -> 'v

(** Flights currently up (0 when idle — a drain check for tests). *)
val in_flight : 'v t -> int

(** Sliding-window SLO instruments: rolling request/error counts and
    latency percentiles over the last N seconds, built on {!Histogram}
    merge.

    A lazily-rotated ring of 15 time buckets (no timer thread); the
    covered interval is between 14/15 and all of the window, the usual
    ring approximation of a true sliding window (quantization under 7%).
    Domain-safe behind one mutex; [now] is injectable everywhere so
    tests drive rotation deterministically. *)

type t

(** [create ~window] covers the trailing [window] seconds.
    @raise Invalid_argument when [window <= 0]. *)
val create : window:float -> t

(** [observe t ~ok seconds] records one request outcome ([ok = false]
    counts as an error) with its latency. *)
val observe : ?now:float -> t -> ok:bool -> float -> unit

type snapshot = {
  w_requests : int;
  w_errors : int;
  w_error_ratio : float;  (** [0.] when the window is empty *)
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;  (** [nan] when the window is empty *)
}

val snapshot : ?now:float -> t -> snapshot

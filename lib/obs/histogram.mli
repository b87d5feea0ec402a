(** Log-linear (HDR-style) histograms for latency / size distributions.

    Values are bucketed by binary exponent (read off the float's bits,
    equal to [frexp]'s for every finite value) with a fixed
    number of linear sub-buckets per power-of-two binade, giving a
    bounded relative error (<= 1/(2*sub_buckets) = 6.25% at the default
    8 sub-buckets) over a huge dynamic range (2^-30 .. 2^37) with a
    small, fixed memory footprint (~540 int buckets).

    Histograms are single-writer structures: build one per domain /
    worker without locks, then {!merge_into} a shared one under the
    owner's lock.  Merge is associative and commutative on counts.

    Negative and NaN observations are counted into the zero bucket
    (they only arise from clock anomalies; we keep the count exact and
    the sum clamped). *)

type t

val create : unit -> t

val copy : t -> t

(** [observe t v] adds one observation. O(1), no allocation. *)
val observe : t -> float -> unit

val count : t -> int

val sum : t -> float

(** Smallest / largest observed value; [nan] when empty. *)
val min_value : t -> float

val max_value : t -> float

(** [merge a b] is a fresh histogram with the observations of both. *)
val merge : t -> t -> t

(** [merge_into ~into src] adds [src]'s observations to [into]. *)
val merge_into : into:t -> t -> unit

(** [percentile t q] for [q] in [0,1]: the value at rank
    [ceil (q * count)] (1-based), approximated by its bucket midpoint
    and clamped to [[min_value, max_value]].  [nan] when empty.  The
    result is guaranteed to fall in the same bucket as the exact
    rank-statistic of the observed multiset. *)
val percentile : t -> float -> float

(** Non-empty buckets as [(upper_bound, count)] in increasing bound
    order, for exposition formats.  The zero bucket reports upper
    bound 0. *)
val buckets : t -> (float * int) list

(** Total number of addressable buckets (for tests / documentation). *)
val num_buckets : int

(** [bucket_index v] — index of the bucket [v] falls into (tests). *)
val bucket_index : float -> int

(** Inclusive-lower / exclusive-upper value range of bucket [i]. *)
val bucket_bounds : int -> float * float

(** Sets of Boolean variables (variables are integer identifiers).

    Shared throughout the library: formulas, valuations (Section 2
    denotes a valuation by the set of variables it maps to 1), circuit
    gate scopes and lineage clauses are all variable sets.  {!components}
    is the library's one split into variable-disjoint components: the
    decomposition search, the safe plan and read-once factoring all call
    it.

    {b Representation.}  A set is a sparse bitset: one [int array] of
    ascending [(block, word)] pairs, block [b] holding the ids
    [62b .. 62b+61] as the bits of its word.  No stored word is zero, so
    the form is canonical (structural equality is set equality) and a
    set of [k] ids takes at most [2k + 1] words.  Set operations are
    merge-scans over the blocks; {!cardinal} is a popcount and {!mem} a
    bit test.

    {b Order.}  {!compare} is [Set.Make (Int)]'s order: ascending element
    sequences compared lexicographically, a proper prefix first.
    {!elements}, {!fold} and {!iter} run in ascending order.  Lineage,
    DNF, hypergraph and read-once clause lists are sorted by this order,
    so it fixes what they print.

    {b Ids} are non-negative: {!add}, {!singleton} and {!of_list} raise
    [Invalid_argument] on a negative id, and {!mem} of one is false. *)

type t

val empty : t
val is_empty : t -> bool
val mem : int -> t -> bool
val add : int -> t -> t
val singleton : int -> t
val remove : int -> t -> t

(** [union a b] is [a] itself when [a] holds [b], and [b] itself when
    [b] holds [a]. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t
val disjoint : t -> t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val cardinal : t -> int
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> unit) -> t -> unit
val elements : t -> int list
val filter : (int -> bool) -> t -> t
val of_list : int list -> t

(** @raise Not_found on the empty set. *)
val min_elt : t -> int

val min_elt_opt : t -> int option
val max_elt_opt : t -> int option

(** [universe ~who ~noun ~vars support] is the player universe [vars]
    as a set, for a function whose variables are [support].
    @raise Invalid_argument ["who: duplicate variables in the universe"]
    or ["who: universe misses noun"]. *)
val universe : who:string -> noun:string -> vars:int list -> t -> t

(** [pp] prints as [{1, 2, 5}]. *)
val pp : Format.formatter -> t -> unit

(** [components ~vars xs] groups [xs] into the connected components of
    the "shares a variable" relation, where [vars x] is the variable set
    of [x].  Each group is [(scope, members)] with [scope] the union of
    its members' sets, so distinct groups have disjoint scopes.  The
    order is fixed: each [x] in turn absorbs every group it touches, and
    the merged group, [x] ahead of the absorbed members, goes first. *)
val components : vars:('a -> t) -> 'a list -> (t * 'a list) list

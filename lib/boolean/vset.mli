(** Sets of Boolean variables (variables are integer identifiers).

    Shared throughout the library: formulas, valuations (Section 2
    denotes a valuation by the set of variables it maps to 1), circuit
    gate scopes and lineage clauses are all variable sets.  {!components}
    is the library's one split into variable-disjoint components: the
    decomposition search, the safe plan and read-once factoring all call
    it. *)

include Set.S with type elt = int

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

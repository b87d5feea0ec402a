(** Sets of Boolean variables (variables are integer identifiers).

    Shared throughout the library: formulas, valuations (Section 2
    denotes a valuation by the set of variables it maps to 1), circuit
    gate scopes and lineage clauses are all variable sets. *)

include Set.S with type elt = int

(** [of_range lo hi] is [{lo, lo+1, ..., hi}] (empty when [hi < lo]). *)
val of_range : int -> int -> t

(** [pp] prints as [{1, 2, 5}]. *)
val pp : Format.formatter -> t -> unit

(** [components ~vars xs] groups [xs] into the connected components of
    the "shares a variable" relation, where [vars x] is the variable set
    of [x].  Each group is [(scope, members)] with [scope] the union of
    its members' sets, so distinct groups have disjoint scopes. *)
val components : vars:('a -> t) -> 'a list -> (t * 'a list) list

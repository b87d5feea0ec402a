(** Fresh-variable supply.

    OR-substitutions (Definition 1) replace each variable by a disjunction
    of {e fresh} variables; the supply hands out identifiers strictly
    above everything in an avoid set, so freshness holds by
    construction. *)

type t

(** [make ~avoid] is a supply whose variables are all fresh w.r.t.
    [avoid]. *)
val make : avoid:Vset.t -> t

(** [fresh_block t k] returns the next [k] fresh variables, in ascending
    order. *)
val fresh_block : t -> int -> int list

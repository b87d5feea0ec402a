(** Brute-force model counting by exhaustive enumeration.

    The reference oracle every other counter is tested against.  Counts
    are relative to an explicit universe, which may strictly contain the
    variables of the formula (the paper's [#F] is over the [n] declared
    variables).  Exponential: capped at 26 variables, as {!Semantics} is. *)

(** [count ~vars f] is [#F] over the universe [vars]. *)
val count : vars:int list -> Formula.t -> Bigint.t

(** [count_by_size ~vars f] is the vector [#_{0..n} F] over [vars]. *)
val count_by_size : vars:int list -> Formula.t -> Kvec.t

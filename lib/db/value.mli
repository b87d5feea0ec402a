(** Database values.

    Plain integers and strings cover ordinary databases; [VPair] provides
    the composite values used by the Appendix B.1.2 construction, which
    folds a stretched attribute pair [(z1, x)] back into a single value of
    [Dom(z1) × Dom(x)] when proving Claim 5.2. *)

type t =
  | VInt of int
  | VStr of string
  | VPair of t * t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [to_string v] is the text [pp] prints, e.g. [(1,(a,2))]. *)
val to_string : t -> string

(** [literal v] is [v] in the syntax of {!Db_parser}: integers bare,
    strings between single quotes with a quote inside doubled, pairs
    [(a,b)], e.g. [(1,('a',2))].  Distinct values render distinctly. *)
val literal : t -> string

(** [int n], [str s], [pair a b] — construction shorthands. *)
val int : int -> t

val str : string -> t
val pair : t -> t -> t

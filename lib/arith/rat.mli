(** Exact rational numbers over {!Bigint}.

    Shapley values are rationals with denominator dividing [n!]
    (Proposition 3); all reductions in the paper are exact, so every
    computation in this library that leaves the integers goes through this
    module.  Values are kept normalized: the denominator is positive and
    coprime with the numerator, so structural equality is numerical
    equality. *)

type t

val zero : t
val one : t
val minus_one : t

(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_bigint n] is the integer [n] as a rational. *)
val of_bigint : Bigint.t -> t

(** [of_int n] is the native integer [n] as a rational. *)
val of_int : int -> t

(** [of_ints num den] is [num/den] for native integers. *)
val of_ints : int -> int -> t

(** [num t] is the (sign-carrying) numerator of the normalized form. *)
val num : t -> Bigint.t

(** [den t] is the positive denominator of the normalized form. *)
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [inv t] is [1/t]. @raise Division_by_zero if [t] is zero. *)
val inv : t -> t

(** [div a b] is [a/b]. @raise Division_by_zero if [b] is zero. *)
val div : t -> t -> t

(** [mul_bigint t n] scales by an integer. *)
val mul_bigint : t -> Bigint.t -> t

(** [to_bigint t] is the value as an integer.
    @raise Failure if [t] is not an integer. *)
val to_bigint : t -> Bigint.t

val to_float : t -> float

(** [to_string t] is ["p/q"], or just ["p"] when the value is an integer. *)
val to_string : t -> string

val of_string : string -> t
val pp : Format.formatter -> t -> unit
val hash : t -> int

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( ~- ) : t -> t
end

(** Arbitrary-precision signed integers.

    The reductions of the paper are exact: Shapley values carry [n!]
    denominators and the Vandermonde systems of Lemmas 3.3 and 3.4 contain
    entries of magnitude [(2^l - 1)^k], far beyond 63-bit range.  No bignum
    library is available in this environment, so this module provides a
    self-contained two-tier implementation: values fitting a native 63-bit
    [int] are stored unboxed with overflow-checked native arithmetic, and
    everything larger falls back to sign + little-endian magnitude in base
    [2^15] with Karatsuba multiplication and Knuth Algorithm D division.
    See DESIGN.md ("Two-tier exact arithmetic"). *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer (any value of [int]). *)
val of_int : int -> t

(** [to_int t] converts back to a native integer.
    @raise Failure if the value does not fit in an OCaml [int]. *)
val to_int : t -> int

(** [to_int_opt t] is [Some n] when the value fits in an OCaml [int]. *)
val to_int_opt : t -> int option

(** [of_string s] parses an optionally ['-']-prefixed decimal numeral.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string t] renders the value as a decimal numeral. *)
val to_string : t -> string

(** [to_float t] is a possibly lossy float approximation (for reporting). *)
val to_float : t -> float

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** [sign t] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [succ t] is [add t one]; [pred t] is [sub t one]. *)
val succ : t -> t

val pred : t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], quotient truncated toward
    zero, so [sign r] is [0] or [sign a] and [|r| < |b|].
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [pow base e] is [base^e] for [e >= 0].
    @raise Invalid_argument if [e < 0]. *)
val pow : t -> int -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [two_pow_minus_one l] is [2^l - 1], the interpolation point of
    Claim 3.5 for substitution width [l].
    @raise Invalid_argument if [l < 0]. *)
val two_pow_minus_one : int -> t

(** [mul_int t k] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [add_int t k] adds a native integer. *)
val add_int : t -> int -> t

(** Number of bits in the magnitude ([0] for zero); used for size reporting. *)
val bit_length : t -> int

(** [shift_right t s] shifts the magnitude right by [s >= 0] bits, i.e.
    truncates [t / 2^s] toward zero.
    @raise Invalid_argument if [s < 0]. *)
val shift_right : t -> int -> t

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end

(** {1 Misc} *)

val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Test-only hooks into the representation; not for production use. *)
module Internal : sig
  (** [is_small t] is [true] iff [t] is stored in the unboxed native-int
      tier.  The representation is canonical, so this must hold exactly
      when the value fits an OCaml [int]. *)
  val is_small : t -> bool

  (** Limb count of the smaller operand above which multiplication switches
      from schoolbook to Karatsuba. *)
  val karatsuba_threshold : int

  (** Schoolbook multiplication, bypassing Karatsuba — for differential
      testing at sizes straddling the threshold. *)
  val mul_schoolbook : t -> t -> t
end

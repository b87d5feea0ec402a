(** Dense univariate polynomials with {!Rat} coefficients.

    Two uses in this library: (a) converting Newton-form interpolants to
    monomial coefficients inside the Vandermonde solver of {!Linalg}, and
    (b) cross-checking the size-stratified count vectors of
    [Counting.Kvec], which are integer polynomials in a formal variable
    marking model size. *)

type t

(** The zero polynomial (empty coefficient vector, degree [-1]). *)
val zero : t

val one : t

(** [of_coeffs [c0; c1; ...]] builds [c0 + c1 x + ...]; trailing zeros are
    stripped so that [degree] is exact. *)
val of_coeffs : Rat.t list -> t

(** [coeff p k] is the coefficient of [x^k] ([Rat.zero] beyond the degree). *)
val coeff : t -> int -> Rat.t

(** [degree p] is [-1] for the zero polynomial. *)
val degree : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t

(** [x_minus c] is the monic linear polynomial [x - c]. *)
val x_minus : Rat.t -> t

(** [eval p v] evaluates by Horner's rule. *)
val eval : t -> Rat.t -> Rat.t


(** Size-stratified model-count vectors.

    For a function [F] over an [n]-variable universe, the vector
    [#_{0..n} F = (#_0 F, ..., #_n F)] of fixed-size model counts is the
    object computed by problem [#_* C] (Section 3).  Algebraically it is an
    integer polynomial [P_F(t) = Σ_k #_k F · t^k]: conjunction of
    variable-disjoint functions is coefficient convolution, extending the
    universe by unconstrained variables is convolution with a binomial
    vector, and complement is [(1+t)^n − P].  Those three operations drive
    both the circuit k-counter and the DPLL k-counter. *)

type t

(** [make ~n counts] wraps a vector of length [n+1].
    @raise Invalid_argument on length mismatch or negative [n]. *)
val make : n:int -> Bigint.t array -> t

(** [universe_size v] is [n]. *)
val universe_size : t -> int

(** [get v k] is [#_k]; zero outside [0..n]. *)
val get : t -> int -> Bigint.t

(** [to_array v] is the underlying vector (a copy), length [n+1]. *)
val to_array : t -> Bigint.t array

(** [total v] is [#F = Σ_k #_k F]. *)
val total : t -> Bigint.t

val equal : t -> t -> bool

(** [hash v] agrees with {!equal}, so [Hashtbl.Make (Kvec)] keys tables
    on vectors. *)
val hash : t -> int

(** [zero ~n] counts nothing: the vector of the unsatisfiable function. *)
val zero : n:int -> t

(** [all ~n] is the vector of the valid function: [#_k = C(n,k)]. *)
val all : n:int -> t

(** [singleton_true] / [singleton_false] are the vectors of the literal
    functions [X] and [¬X] over the 1-variable universe [{X}]. *)
val singleton_true : t

val singleton_false : t

(** [const_true ~n] over an [n]-universe equals {!all}; [const_false ~n]
    equals {!zero}. *)
val const_true : n:int -> t

val const_false : n:int -> t

(** [conv a b] is the vector of [A ∧ B] when [A], [B] are over disjoint
    universes (sizes add). *)
val conv : t -> t -> t

(** [conv_list vs] is [List.fold_left conv (const_true ~n:0) vs], computed
    with reusable scratch buffers sized for the final universe. *)
val conv_list : t list -> t

(** [add a b] adds pointwise — the vector of a {e deterministic} (mutually
    exclusive) disjunction over a common universe.
    @raise Invalid_argument on universe-size mismatch. *)
val add : t -> t -> t

(** [sub a b] subtracts pointwise.
    @raise Invalid_argument on universe-size mismatch. *)
val sub : t -> t -> t

(** [neg v] negates pointwise.  Vectors need not count anything: the
    adjoints and difference vectors of the circuit backward pass are
    signed. *)
val neg : t -> t

(** [extend v ~extra] re-expresses [v] over a universe enlarged by [extra]
    unconstrained variables (smoothing): convolution with binomials. *)
val extend : t -> extra:int -> t

(** [complement v] is the vector of [¬F] over the same universe. *)
val complement : t -> t

(** [disjoint_or a b] is the vector of [A ∨ B] when [A] and [B] are over
    disjoint universes: [(1+t)^{na+nb} − N_A · N_B] with [N] the non-model
    vectors. *)
val disjoint_or : t -> t -> t

(** [weighted_sum v w] is [Σ_k w^k · #_k] — the right-hand side of
    Claim 3.5 when [w = 2^l − 1]. *)
val weighted_sum : t -> Bigint.t -> Bigint.t

val pp : Format.formatter -> t -> unit

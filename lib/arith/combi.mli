(** Exact combinatorics: factorials, binomial coefficients, and the Shapley
    coefficients [c_k = k! (n-k-1)! / n!] of Proposition 3.

    All values are memoized; the memo tables grow on demand and are shared
    across the whole process, which matters because the reductions of
    Section 3 evaluate [c_k] for every [k] at every variable. *)

(** [factorial n] is [n!]. @raise Invalid_argument if [n < 0]. *)
val factorial : int -> Bigint.t

(** [binomial n k] is [C(n, k)]; [0] when [k < 0] or [k > n].
    @raise Invalid_argument if [n < 0]. *)
val binomial : int -> int -> Bigint.t

(** [shapley_coeff ~n k] is [c_k = k! (n-k-1)! / n!] from Eq. (2), for
    [0 <= k <= n-1].  @raise Invalid_argument outside that range. *)
val shapley_coeff : n:int -> int -> Rat.t

(** [shapley_of_diffs ~n d] is Eq. (2) on integer differences:
    [Σ_{k=0}^{n-1} c_k · d k], computed as one integer dot product with
    the cached row [k! (n-k-1)!] and one normalisation by [n!].  [d k] is
    the difference [#_k F[X:=1] − #_k F[X:=0]] of some player [X]; the
    result is [0] when [n <= 0]. *)
val shapley_of_diffs : n:int -> (int -> Bigint.t) -> Rat.t

(** [pow2 n] is [2^n] as a {!Bigint.t}. @raise Invalid_argument if [n < 0]. *)
val pow2 : int -> Bigint.t

(** Exact combinatorics: factorials, binomial coefficients, and the Shapley
    coefficients [c_k = k! (n-k-1)! / n!] of Proposition 3.

    Eq. (2) is taken over the denominator [lcm(1..n)], not [n!]: since
    [c_k = 1 / (n·C(n-1,k))] and [lcm_k C(n-1,k) = lcm(1..n) / n], every
    [c_k] is [w_k / lcm(1..n)] with an integer [w_k].  [lcm(1..n)] has
    about [1.44 n] bits where [n!] has [n log2 n] (115 against 395 at
    n = 80, 1 835 against 11 372 at n = 1 280), so the dot product's
    weights and its normalisation's gcd shrink by that factor.  Reduced
    rationals are unique, so the values are those of the [n!] form.

    Factorials and the Eq. (2) rows are memoized per [n] by {!per_n},
    whose tables are shared across the whole process, which matters
    because the reductions of Section 3 evaluate [c_k] for every [k] at
    every variable.  [Kvec]'s binomial rows are its third table. *)

(** [per_n build] is [build] memoized per [n >= 0]: each [build n] runs
    once, and later calls return that value.  The table grows
    copy-on-write under one mutex, and reads take no lock, so domains
    may share it.  [build] runs under that mutex, which is not
    re-entrant: it must not call the function [per_n] returns. *)
val per_n : (int -> 'a) -> int -> 'a

(** [factorial n] is [n!]. @raise Invalid_argument if [n < 0]. *)
val factorial : int -> Bigint.t

(** [binomial n k] is [C(n, k)]; [0] when [k < 0] or [k > n].
    @raise Invalid_argument if [n < 0]. *)
val binomial : int -> int -> Bigint.t

(** [shapley_coeff ~n k] is [c_k = k! (n-k-1)! / n!] from Eq. (2), for
    [0 <= k <= n-1]: the cached row's [w_k / lcm(1..n)], reduced.
    @raise Invalid_argument outside that range. *)
val shapley_coeff : n:int -> int -> Rat.t

(** [shapley_of_diffs ~n d] is Eq. (2) on integer differences:
    [Σ_{k=0}^{n-1} c_k · d k], computed as one integer dot product with
    the cached row [w_k = lcm(1..n) / (n·C(n-1,k))] and one
    normalisation by [lcm(1..n)].  [d k] is
    the difference [#_k F[X:=1] − #_k F[X:=0]] of some player [X]; the
    result is [0] when [n <= 0]. *)
val shapley_of_diffs : n:int -> (int -> Bigint.t) -> Rat.t

(** [pow2 n] is [2^n] as a {!Bigint.t}. @raise Invalid_argument if [n < 0]. *)
val pow2 : int -> Bigint.t

(** The decomposition search, and exact model counting by it.

    One search serves both exact routes of the paper.  It memoizes
    [∧]/[∨] subformulas structurally, splits an [∧]/[∨] node whose
    children fall into several variable-disjoint components into one part
    per component, Shannon-expands a connected node on a most-frequent
    variable, and answers [¬g] by negating the answer for [g].  What the
    search builds is an {!algebra}:

    - counting (this module) builds size-stratified count vectors
      [#_{0..n} F], which sum to [#F]: the oracles of Lemmas 3.2+3.3;
    - [Compile] builds a d-D circuit node, the input of Theorem 4.1.

    A cached, decomposing DPLL run is the trace of a d-DNNF compilation
    (Huang & Darwiche, "The Language of Search", JAIR 2007), so the two
    instances take the same branches and hit the cache equally often.

    Counting is the project's #SAT engine: polynomial on read-once-style
    inputs thanks to decomposition, exponential in the worst case, which
    is the behaviour experiments E10 and E13 measure.  It does no unit
    propagation (that is [Compile_cnf]'s) and no pure-literal
    elimination, which does not preserve model counts. *)

(** Search statistics of one call. *)
type stats = {
  branches : int;  (** Shannon expansions performed *)
  cache_hits : int;  (** [∧]/[∨] subformulas answered from the memo *)
}

(** What the search builds.  [conj] and [disj] combine the answers for
    variable-disjoint parts of an [∧] resp. [∨] node.  [shannon x ~scope
    lo hi] combines the cofactor answers [lo = F[x:=0]] and
    [hi = F[x:=1]] of a connected node [F] whose variables are [scope]
    (which contains [x]; the cofactors may mention fewer). *)
type 'a algebra = {
  const : bool -> 'a;
  var : int -> 'a;
  not_ : 'a -> 'a;
  conj : 'a list -> 'a;
  disj : 'a list -> 'a;
  shannon : int -> scope:Vset.t -> 'a -> 'a -> 'a;
}

(** [search alg f] runs the search on [Formula.simplify f]. *)
val search : 'a algebra -> Formula.t -> 'a * stats

(** [count f] is [#F] over exactly the variables of [f]. *)
val count : Formula.t -> Bigint.t

(** [count_universe ~vars f] is [#F] over the universe [vars] (a superset
    of [Formula.vars f]).
    @raise Invalid_argument if [vars] misses a variable of [f]. *)
val count_universe : vars:int list -> Formula.t -> Bigint.t

(** [count_by_size f] is the vector [#_{0..n} F] over the variables of [f]. *)
val count_by_size : Formula.t -> Kvec.t

(** [count_by_size_universe ~vars f] is the vector over the universe
    [vars].  @raise Invalid_argument if [vars] misses a variable of [f]. *)
val count_by_size_universe : vars:int list -> Formula.t -> Kvec.t

(** [count_with_stats f] also reports search statistics. *)
val count_with_stats : Formula.t -> Bigint.t * stats

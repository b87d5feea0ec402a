(** Ordered binary decision diagrams.

    OBDDs are the prime example the paper gives of deterministic and
    decomposable circuits (Section 4): a reduced OBDD node [(x, lo, hi)]
    reads as the deterministic disjunction [(¬x ∧ lo) ∨ (x ∧ hi)], which
    {!to_circuit} makes literal.  Nodes are hash-consed and reduced inside a
    manager, so within one manager semantic equivalence of OBDDs is pointer
    equality — giving a cheap equivalence test used by the test suite and
    by the hierarchical-lineage experiments (Olteanu–Huang [27] compile
    hierarchical-query lineage to OBDDs; our {!of_formula} plays that
    role).  Counting runs no pass of its own: {!count_by_size} counts
    {!to_circuit}'s circuit with {!Count}. *)

type manager
type node

(** [create_manager ~order] fixes the variable order, root to leaves.
    Variables not listed may not be used with this manager.
    @raise Invalid_argument on duplicates. *)
val create_manager : order:int list -> manager

val leaf_true : manager -> node
val leaf_false : manager -> node

(** [var m v] is the single-variable OBDD for [X_v].
    @raise Invalid_argument if [v] is not in the order. *)
val var : manager -> int -> node

val neg : manager -> node -> node
val conj : manager -> node -> node -> node
val disj : manager -> node -> node -> node
val xor : manager -> node -> node -> node

(** [of_formula m f] compiles a formula bottom-up with [apply].
    @raise Invalid_argument if [f] uses a variable outside the order. *)
val of_formula : manager -> Formula.t -> node

(** [restrict m v b t] conditions on [X_v := b]. *)
val restrict : manager -> int -> bool -> node -> node

(** [equal a b] is semantic equivalence (valid within one manager). *)
val equal : node -> node -> bool

val is_true : node -> bool
val is_false : node -> bool

(** [eval env t] follows one path root to leaf. *)
val eval : (int -> bool) -> node -> bool

val eval_set : Vset.t -> node -> bool

(** [size t] is the number of distinct nodes (including leaves). *)
val size : node -> int

(** [count_by_size m ~vars t] is the stratified vector over [vars]:
    {!Count.count_by_size} of {!to_circuit}.
    @raise Invalid_argument if [vars] holds a variable outside the
    manager's order, lists a variable twice or misses {!support}. *)
val count_by_size : manager -> vars:int list -> node -> Kvec.t

(** [count m ~vars t] is the model count over the universe [vars], the
    total of {!count_by_size}.
    @raise Invalid_argument as {!count_by_size} does. *)
val count : manager -> vars:int list -> node -> Bigint.t

(** [to_circuit m t] exports to a deterministic & decomposable circuit of
    size [O(size t)]. *)
val to_circuit : manager -> node -> Circuit.node

(** [support t] is the set of variables tested on some path. *)
val support : node -> Vset.t

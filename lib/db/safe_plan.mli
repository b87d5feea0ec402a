(** Safe-plan lineage compilation for hierarchical self-join-free CQs.

    For a hierarchical SJF query the lineage is read-once, and it can be
    built directly as a deterministic & decomposable circuit in polynomial
    time — no knowledge-compilation search needed (this is the role
    Olteanu–Huang's OBDD construction [27] plays in the paper's Claim 5.3).
    The plan recursion:

    - variable-disjoint connected components of the residual query are
      independent: decomposable AND.  They are {!Vset.components} over
      each atom's unbound query variables, as ids numbered in name
      order;
    - a connected residual query has a {e root variable} occurring in all
      its atoms (hierarchical + connected guarantees one; the plan takes
      the least id, the first name in sorted order); branching on its
      possible values produces subqueries whose lineages use disjoint sets
      of tuples (SJF): variable-disjoint OR;
    - ground atoms resolve to the tuple's lineage variable (endogenous),
      [true]/[false] (exogenous present/absent).

    The plan reads the database once per level and looks nothing up.
    Each atom carries the rows of its relation still consistent with the
    constants bound so far.  Branching on a root variable [x] partitions
    each atom's rows by the value they give [x] (a row counts only when
    all of [x]'s positions hold that value), and only the values every
    atom has a row for are branched on, in [Value.compare] order; the
    rest would plan to [false].  A ground atom keeps at most one row,
    and becomes its leaf, or [false] when none is left.  So building the
    lineage costs [O(|D| · depth)].

    Together with the polynomial circuit Shapley algorithm (Theorem 4.1)
    this realizes the tractable side of the dichotomy (Theorem 5.1). *)

exception Not_safe of string

(** [lineage_circuit db q] builds the read-once lineage circuit.
    @raise Not_safe if [q] is not hierarchical or not self-join-free.
    @raise Invalid_argument if [q] does not match the schema. *)
val lineage_circuit : Database.t -> Cq.t -> Circuit.node

(** [shapley db q] is the Shapley value of every endogenous tuple of [db]
    (by lineage variable) — polynomial in the size of [db].
    @raise Not_safe as above. *)
val shapley : Database.t -> Cq.t -> (int * Rat.t) list

(** [obdd_order db q] is a variable order under which the OBDD of the
    lineage stays polynomial — the Olteanu–Huang route [27] that
    Claim 5.3 cites: variables are emitted in the left-to-right order the
    safe plan touches them (its circuit's leaves in {!Circuit.fold}'s
    order), keeping each decomposition block contiguous.
    (Contrast: interleaving blocks can blow the OBDD up exponentially;
    experiment E17 measures both.)  The order contains every lineage
    variable of [db], plan-touched ones first.
    @raise Not_safe as for {!lineage_circuit}. *)
val obdd_order : Database.t -> Cq.t -> int list

(** [lineage_obdd db q] compiles the lineage to an OBDD under
    {!obdd_order} and returns it with its manager. *)
val lineage_obdd : Database.t -> Cq.t -> Obdd.manager * Obdd.node

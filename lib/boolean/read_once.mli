(** Read-once factoring of positive DNF.

    A positive Boolean function is {e read-once} if it has an ∧/∨ formula
    in which every variable appears exactly once.  Read-once lineage is
    the classical tractable case for probabilistic databases and for
    Shapley values (hierarchical self-join-free CQs have read-once
    lineage, which is why [Safe_plan] works); this module recognizes
    read-onceness of an arbitrary positive DNF and produces the factored
    form.

    Algorithm (the classical cograph-style recursion on the set of prime
    implicants): OR-decompose along variable-disjoint groups of clauses;
    AND-decompose along the connected components of the {e complement} of
    the variable co-occurrence graph, verifying that the clause set is
    exactly the cartesian product of the projections; a connected,
    co-connected function on ≥ 2 variables is not read-once.  Both splits
    are {!Vset.components}: over the clauses, and over the variables
    keyed by themselves and the variables no clause holds with them, so
    the parts come in that merge's order. *)

type tree =
  | Leaf of int
  | And of tree list
  | Or of tree list

(** [factor d] returns the read-once tree of the function denoted by the
    positive DNF [d], or [None] if the function is not read-once.  [d] is
    minimized first ({!Nf.pdnf_minimize}), so any positive DNF
    representation of the function works.  Constant functions (empty DNF
    or an empty clause) are rejected with [Invalid_argument]. *)
val factor : Nf.pdnf -> tree option

(** [is_read_once d] = [factor d <> None]. *)
val is_read_once : Nf.pdnf -> bool

(** [tree_to_formula t] — every variable occurs exactly once. *)
val tree_to_formula : tree -> Formula.t

(** [tree_vars t] — the (distinct) variables of the tree. *)
val tree_vars : tree -> Vset.t

(** Deterministic and decomposable Boolean circuits (Section 4.1).

    A circuit is a DAG of gates; [∧]-gates must be {e decomposable} (the
    children's variable sets are pairwise disjoint) and [∨]-gates must be
    {e deterministic} (no valuation satisfies two children).  We additionally
    distinguish {e disjoint} [∨]-gates whose children have pairwise disjoint
    variable sets — the shape produced by read-once lineage of hierarchical
    queries (Section 5.3); they need not be deterministic, and model counts
    across them combine by the independent-union rule.

    Nodes are hash-consed: every node carries a unique [id] and its exact
    variable set, so decomposability and disjointness are checked {e at
    construction} (violations raise).  Determinism of [∨]-gates is a
    semantic property that cannot be checked structurally in polynomial
    time; constructors trust the caller, and {!check_deterministic} verifies
    it exhaustively for tests.

    A pass that computes one value per distinct node is a {!memo}
    recursion: {!eval_set} here, and conditioning, OR-substitution,
    probability and the counting pass elsewhere. *)

type or_kind =
  | Deterministic  (** children are mutually exclusive *)
  | Disjoint  (** children have pairwise disjoint variable sets *)

type gate = private
  | Ctrue
  | Cfalse
  | Cvar of int
  | Cnot of node
  | Cand of node list
  | Cor of or_kind * node list

and node = private { id : int; gate : gate; vars : Vset.t }

(** {1 Constructors}

    All constructors hash-cons and apply constant simplification (so the
    constants [Ctrue]/[Cfalse] never appear as children), which keeps
    counting and conditioning code free of special cases. *)

val ctrue : node
val cfalse : node
val cvar : int -> node
val cbool : bool -> node

(** [cnot g] negates; double negations collapse. *)
val cnot : node -> node

(** [cand gs] builds a decomposable [∧]-gate.
    @raise Invalid_argument if children share variables. *)
val cand : node list -> node

(** [cor_det gs] builds a deterministic [∨]-gate.  The caller asserts
    mutual exclusivity of the children (checked only by
    {!check_deterministic}). *)
val cor_det : node list -> node

(** [cor_disj gs] builds a variable-disjoint [∨]-gate.
    @raise Invalid_argument if children share variables. *)
val cor_disj : node list -> node

(** {1 Observation} *)

(** [vars g] is the exact variable set of the subcircuit. *)
val vars : node -> Vset.t

(** [size g] is the number of distinct gates reachable from [g] (the
    paper's [|G|]). *)
val size : node -> int

(** [edge_count g] is the number of wires (for the Lemma 9 size bound). *)
val edge_count : node -> int

(** [eval_set s g] evaluates under the valuation true exactly on [s]. *)
val eval_set : Vset.t -> node -> bool

(** [to_formula g] unfolds the DAG into a formula (may blow up; testing
    only). *)
val to_formula : node -> Formula.t

(** [fold f init g] folds over reachable nodes in a bottom-up order (each
    node visited once, after its children, which it visits left to
    right). *)
val fold : ('a -> node -> 'a) -> 'a -> node -> 'a

(** [memo f] is the memoized recursion [self] with [self g = f self g],
    computed once per distinct node: [f] reads a child's value through
    [self].  Each call of [memo f] gets a fresh table, so [self] may be
    applied to several roots of one pass. *)
val memo : ((node -> 'a) -> node -> 'a) -> node -> 'a

(** {1 Verification (exponential; for tests)} *)

(** [check_deterministic ~max_vars g] verifies by enumeration that every
    [Deterministic] [∨]-gate has mutually exclusive children.
    @raise Invalid_argument if some gate scope exceeds [max_vars]. *)
val check_deterministic : max_vars:int -> node -> bool

(** [equivalent_formula ~max_vars g f] checks [g ≡ f] by enumeration. *)
val equivalent_formula : max_vars:int -> node -> Formula.t -> bool

(** [pp_with ~var] prints variable [v] as [var v]. *)
val pp_with : var:(int -> string) -> Format.formatter -> node -> unit

(** [pp] is [pp_with] printing variable [v] as [x<v>]. *)
val pp : Format.formatter -> node -> unit

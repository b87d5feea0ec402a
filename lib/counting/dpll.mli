(** The decomposition search, and exact model counting by it.

    One search serves both exact routes of the paper.  It memoizes
    [∧]/[∨] subformulas structurally, splits an [∧]/[∨] node whose
    children fall into several variable-disjoint components into one part
    per component, propagates the units of a connected [∧] node, decides
    a connected node without units on a block of variables (see below),
    and answers [¬g] by negating the answer for [g].  What the search
    builds is an {!algebra}:

    - counting (this module) builds size-stratified count vectors
      [#_{0..n} F], which sum to [#F]: the oracles of Lemmas 3.2+3.3;
    - [Compile] builds a d-D circuit node, the input of Theorem 4.1.

    A cached, decomposing DPLL run is the trace of a d-DNNF compilation
    (Huang & Darwiche, "The Language of Search", JAIR 2007), so the two
    instances take the same decisions and hit the cache equally often.

    {b Blocks.}  The branch variable [x] is one with the most
    occurrences.  If every occurrence of [x] is a leaf [x] (not [¬x]) of
    an [∨] node, its {e twins} are the other variables that are leaves
    of exactly those nodes and occur nowhere else; dually for [∧].  With
    [S] the block of [x] and its twins, each of those nodes reads
    [B ∨ rest] for [B = ⋁S], so [F] depends on [S] only through [B], and
    the search decides on [B]:

    {v F = (B ∧ F[B:=1]) ∨ (¬B ∧ F[B:=0]),   F[B:=1] = F[x:=1],
                                             F[B:=0] = F[S:=0] v}

    (dually [B = ⋀S], [F[B:=1] = F[S:=1]], [F[B:=0] = F[x:=0]]).  A
    variable without twins is the block [S = {x}], and the decision is
    the Shannon expansion on [x].  The OR-substituted instances of
    Lemmas 3.3 and 3.4 replace each variable by a disjunction of [l]
    fresh ones, which are twins, so the search decides once per block
    where a Shannon expansion per variable would branch on each of the
    [l]: it absorbs the substitution as Lemma 9 does on circuits, and
    [Compile] of [F^(l)] grows linearly in [l].

    Twins are found in the occurrence pass that picks [x], so a node
    without blocks costs no extra traversal.  The pass records, per
    variable, the nodes it is a leaf of in visiting order, and the
    variables whose record equals [x]'s are its twins.  That finds them
    all when a block's leaves sit side by side in each node, as a
    substitution places them; a twin it misses leaves a smaller block,
    which is as sound a decision.  The rule is about leaves,
    not about compound subformulas whose variables occur only inside
    their copies, because {!Formula.or_} flattens a substituted block
    into an enclosing [∨]: in [F^(l)] for [F = x ∨ G], the block
    [Z_1 ∨ ... ∨ Z_l] is no subformula, only [l] sibling leaves of the
    [∨] that holds [G^(l)].

    {b Units.}  A connected [∧] node with literal children is [L ∧ G]
    for their conjunction [L].  The search fixes [L], then the literals
    of what is left, until none is (unit propagation): a decision on [L]
    whose false branch is false, counted in [propagations], not in
    [branches].  A CNF presents such nodes; a DNF whose terms mention
    each variable once never does: a term's literals fall into separate
    components.

    {b Cost.}  The search reads what {!Formula} nodes carry: each
    child's variable set for the component split, the node's hash for
    the memo (a [Hashtbl.Make] over {!Formula.hash} and
    {!Formula.equal}), and the [normal] flag, so a restriction rebuilds
    only the paths to the bound variables and normal input skips the
    entry simplification.  Count vectors stay native ints while they fit
    ({!Kvec}).

    Counting is the project's #SAT engine: polynomial on read-once-style
    inputs thanks to decomposition, exponential in the worst case, which
    is the behaviour experiments E10 and E13 measure.  It does no
    pure-literal elimination, which does not preserve model counts. *)

(** Search statistics of one call. *)
type stats = {
  branches : int;  (** decisions, each on a block or a lone variable *)
  propagations : int;  (** literals fixed by unit propagation *)
  cache_hits : int;  (** [∧]/[∨] subformulas answered from the memo *)
}

(** What the search builds.  [conj] and [disj] combine the answers for
    variable-disjoint parts of an [∧] resp. [∨] node.  [decide b ~scope
    lo hi] combines, for a connected node [F] whose variables are
    [scope], the answer [b] for its block [B] (a variable, or the
    disjunction or conjunction of several, all in [scope]) with the
    cofactor answers [lo = F[B:=0]] and [hi = F[B:=1]].  The cofactors
    mention no variable of [B] and may mention fewer of the rest. *)
type 'a algebra = {
  const : bool -> 'a;
  var : int -> 'a;
  not_ : 'a -> 'a;
  conj : 'a list -> 'a;
  disj : 'a list -> 'a;
  decide : 'a -> scope:Vset.t -> 'a -> 'a -> 'a;
}

(** [search alg f] runs the search on [Formula.simplify f], which is
    [f] itself when [f] is normal. *)
val search : 'a algebra -> Formula.t -> 'a * stats

(** [count f] is [#F] over exactly the variables of [f]. *)
val count : Formula.t -> Bigint.t

(** [count_universe ~vars f] is [#F] over the universe [vars] (a superset
    of [Formula.vars f]).
    @raise Invalid_argument if [vars] misses a variable of [f].
    @raise Invalid_argument if [vars] lists a variable twice. *)
val count_universe : vars:int list -> Formula.t -> Bigint.t

(** [count_by_size f] is the vector [#_{0..n} F] over the variables of [f]. *)
val count_by_size : Formula.t -> Kvec.t

(** [count_by_size_universe ~vars f] is the vector over the universe
    [vars].  @raise Invalid_argument if [vars] misses a variable of [f].
    @raise Invalid_argument if [vars] lists a variable twice. *)
val count_by_size_universe : vars:int list -> Formula.t -> Kvec.t

(** [count_with_stats f] also reports search statistics. *)
val count_with_stats : Formula.t -> Bigint.t * stats

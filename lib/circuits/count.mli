(** Polynomial-time model counting on d-D circuits.

    The classical tractability result used by Theorem 4.1: on deterministic
    and decomposable circuits both [#G] and the full size-stratified vector
    [#_{0..n} G] are computable in time polynomial in [|G|].  The algorithm
    is a single bottom-up pass computing, for every gate [g], the vector of
    model counts of [G_g] over [vars g]:

    - [∧] (decomposable): convolution of the children's vectors;
    - [∨] (deterministic): sum of the children's vectors, each first
      smoothed to the gate scope by convolution with binomials;
    - [∨] (variable-disjoint): independent union via non-model vectors;
    - [¬]: complement within the gate scope.

    Cost: [O(|G| · n^2)] bigint operations. *)

(** [count_by_size ~vars g] is the vector [#_{0..n} G] over the universe
    [vars].  @raise Invalid_argument if [vars] misses circuit variables.
    @raise Invalid_argument if [vars] lists a variable twice. *)
val count_by_size : vars:int list -> Circuit.node -> Kvec.t

(** [count ~vars g] is [#G] over the universe [vars].
    @raise Invalid_argument as {!count_by_size} does. *)
val count : vars:int list -> Circuit.node -> Bigint.t

(** [count_circuit g] / [count_by_size_circuit g] count over exactly
    [Circuit.vars g]. *)
val count_circuit : Circuit.node -> Bigint.t

val count_by_size_circuit : Circuit.node -> Kvec.t

(** [differences ~vars g] is, for every variable [x] of [vars] in
    increasing order, the signed vector
    [#_{0..n-1} G[x:=1] − #_{0..n-1} G[x:=0]] over [vars ∖ {x}] — the
    difference vectors of Eq. (2).  It runs the counting pass above,
    keeping every gate's vector, then one backward pass that propagates
    adjoint vectors from the root to the leaves:

    - the root's adjoint is the binomial row padding [vars g] to [vars];
    - [∧] and variable-disjoint [∨] pass each child the parent's adjoint
      times the product of its siblings' vectors (their complements, for
      [∨]);
    - deterministic [∨] passes the adjoint through the child's smoothing
      binomial; [¬] negates it.

    The leaf [x] ends up holding [x]'s difference vector, exactly: the
    stratified count is multilinear in the leaves, so the difference is a
    partial derivative.  Variables the circuit does not mention get the
    zero vector.  Cost: [O(|G| · n^2)] bigint operations for all [n]
    vectors together, where conditioning and recounting costs that per
    variable.  @raise Invalid_argument if [vars] misses circuit
    variables.  @raise Invalid_argument if [vars] lists a variable
    twice. *)
val differences : vars:int list -> Circuit.node -> (int * Kvec.t) list

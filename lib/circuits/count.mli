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

(** What the pass puts on a variable.  A vector here is a polynomial in
    [t] ({!Kvec}), and the pass is the same with any weight:

    - leaf [x] holds [leaf x], the weight of [x] being true;
    - [free] is the vector [u] of one unconstrained variable, so [x]
      being false weighs [u − leaf x];
    - smoothing over [m] variables convolves with [u^m], and a
      complement over [m] variables subtracts from [u^m].

    Every [leaf x] and [free] must be vectors over one variable.  The
    root vector is then [Σ_M Π_{x ∈ M} leaf x · Π_{x ∉ M} (u − leaf x)]
    over the models [M] of [G]. *)
type weight = { leaf : int -> Kvec.t; free : Kvec.t }

(** [counting] weighs [t] when true and [1] when false ([u = 1 + t]):
    the root vector is [#_{0..n} G].  Its powers [u^m] are the shared
    binomial rows. *)
val counting : weight

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

(** [differences ~weight ~vars g] is, for every variable [x] of [vars]
    in increasing order, the signed vector [R_1 − R_0] over
    [vars ∖ {x}], where [R_b] is the root vector of [G[x:=b]] under
    [weight].  Under {!counting} it is
    [#_{0..n-1} G[x:=1] − #_{0..n-1} G[x:=0]], the difference vector of
    Eq. (2).  It runs the forward pass above, keeping every gate's
    vector, then one backward pass that propagates adjoint vectors from
    the root to the leaves:

    - the root's adjoint is [u^m], padding [vars g] to [vars];
    - [∧] and variable-disjoint [∨] pass each child the parent's adjoint
      times the product of its siblings' vectors (their complements, for
      [∨]): the exact quotient of the parent's adjoint times all of them
      by the child's own vector ({!Kvec.div_exact}), one division per
      distinct vector.  A zero sibling has no quotient: if exactly one
      is zero it alone receives the product of the others, and if two
      or more are, every adjoint is zero;
    - deterministic [∨] passes the adjoint through the child's smoothing
      factor [u^m]; [¬] negates it.

    The leaf [x] ends up holding [x]'s vector, exactly.  Move [ε] from
    [x]'s false weight to its true weight: the root vector becomes
    [(leaf x + ε)·R_1 + (u − leaf x − ε)·R_0], whose slope in [ε] is
    [R_1 − R_0].  Inside the circuit only the leaf [x] moves, since
    smoothing and complements weigh [x] by [u], the sum of its two
    weights, which no leaf changes.  So [R_1 − R_0] is the derivative of
    the root vector by the leaf [x].  Variables the circuit does not
    mention get the zero vector.  Cost: [O(|G| · n^2)] bigint operations
    for all [n] vectors together, where conditioning and recounting
    costs that per variable; a gate of [m] children costs [m]
    convolutions and [O(n · |f_i|)] per distinct child vector [f_i],
    not [m] full products.  @raise Invalid_argument if [vars] misses
    circuit variables.  @raise Invalid_argument if [vars] lists a
    variable twice. *)
val differences :
  weight:weight -> vars:int list -> Circuit.node -> (int * Kvec.t) list

(** The hardness side of the dichotomy, run end to end (Section 5.3).

    The paper's reduction chain
    [#C_Q0 ≤P Shap(~C_Q0) ≤P Shap(C_~Q0) = Shap(C_Q0)] says: counting the
    models of an arbitrary positive bipartite DNF — #P-hard by
    Provan–Ball — needs nothing more than a Shapley oracle for lineages of
    the fixed non-hierarchical query [Q0 = R(x), S(x,y), T(y)].  This
    module executes that chain on concrete instances:

    + {!encode} embeds a bipartite DNF as [F_{Q0,D}] (pick [R], [T] for
      the variable parts, [S] for the edge set);
    + Lemma 3.4 asks for [Shap(F^(l,i), Z_i)]; the function [F^(l,i)]
      is realised as the lineage of [Q0] itself over the transformed
      database [Stretch.or_substituted_q0_db] (Claim 5.2 + Appendix
      B.2.2), so every oracle call is again a [Q0]-lineage Shapley
      computation;
    + the recovered count is the bipartite DNF's model count.

    The Shapley oracle itself is pluggable; benchmarks use the exponential
    reference (there is no polynomial one — that is the point). *)

(** [encode inst] builds the [Q0] database whose lineage is the positive
    bipartite DNF of [inst]: [R = {x_i}], [T = {y_j}],
    [S = edges].  Returns the database and the query.  Left variable [i]
    receives the lineage variable of tuple [R(i)], right variable [j] that
    of [T(j)] (retrievable via [Database.tuple_of_var]). *)
val encode : Bipartite.t -> Database.t * Cq.t

(** A Shapley oracle over [Q0]-databases: given a database, return the
    Shapley value of each lineage variable of [F_{Q0,D}]. *)
type q0_shapley_oracle = Database.t -> (int * Rat.t) list

(** The exponential reference oracle: {!Dichotomy.shapley} on [Q0],
    which is non-hierarchical, so its lineage is compiled to a d-D
    circuit and solved by one circuit Shapley pass. *)
val reference_oracle : q0_shapley_oracle

(** [count_via_q0_shapley ~oracle inst] counts the models of the
    bipartite DNF of [inst] using only [oracle] calls on [Q0]-databases —
    the executable hardness reduction.  The result equals
    [Bipartite.count inst]. *)
val count_via_q0_shapley :
  oracle:q0_shapley_oracle -> Bipartite.t -> Bigint.t

(** [oracle_calls inst] is the number of oracle invocations the reduction
    makes ([n^2] for [n] endogenous tuples). *)
val oracle_calls : Bipartite.t -> int

(** Boolean functions as formula ASTs (Section 2 of the paper).

    A Boolean function over variables [X_1, ..., X_n] is built from variables,
    constants and the connectives [∧], [∨], [¬].  Variables are integer
    identifiers; following the paper we identify isomorphic functions (equal
    up to variable renaming), which {!rename} makes executable.

    Connectives are n-ary in the AST; the smart constructors flatten and
    simplify, and {!size} counts occurrences of variables and of (binary)
    connectives as in the paper's definition of [|F|].

    {b Annotated nodes.}  A node carries, set once when it is built, its
    variable set, a structural hash and a [normal] flag (the smart
    constructors built it from normal children).  So {!vars} and {!hash}
    are field reads, {!simplify} returns a normal node as it is, and
    {!restrict_set} rebuilds only the paths to the bound variables.
    There is no interning table: equal formulas may be distinct nodes.
    Compare nodes with {!equal} and {!compare}, never polymorphic [=],
    which would compare the cached sets' tree shapes. *)

(** What a node is. *)
type view =
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

and t = private {
  view : view;
  vars : Vset.t;  (** the variables occurring in the node *)
  hash : int;  (** structural, order-sensitive; agrees with {!equal} *)
  normal : bool;  (** built by the smart constructors from normal nodes *)
}

(** [view f] is [f.view]. *)
val view : t -> view

(** [make v] builds the node [v] as it is, without simplification, and
    marks it not normal: how tests present unsimplified shapes. *)
val make : view -> t

(** {1 Smart constructors}

    These perform only local, constant-time-per-node simplification
    (identity/absorbing constants, flattening of nested same-connective
    lists, double negation); they never change the variable set except by
    dropping constants. *)

val tru : t
val fls : t
val var : int -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t

(** [conj2 a b] and [disj2 a b] are binary forms of {!and_}/{!or_}. *)
val conj2 : t -> t -> t

val disj2 : t -> t -> t

(** [of_bool b] is [tru] or [fls]. *)
val of_bool : bool -> t

(** {1 Observation} *)

(** [vars f] is the set of variables occurring in [f]. *)
val vars : t -> Vset.t

(** [hash f] is [f.hash]: [equal a b] implies [hash a = hash b]. *)
val hash : t -> int

(** [size f] is the paper's [|F|]: the number of occurrences of variables,
    constants, and binary connectives ([And]/[Or] of [k] arguments count as
    [k - 1] connectives). *)
val size : t -> int

(** [eval env f] evaluates under the assignment [env]. *)
val eval : (int -> bool) -> t -> bool

(** [eval_set s f] evaluates under the valuation that maps exactly the
    variables in [s] to true — the paper's [F[T]] notation. *)
val eval_set : Vset.t -> t -> bool

(** Structural equality (not semantic equivalence; see
    {!Semantics.equivalent}). *)
val equal : t -> t -> bool

(** A total order agreeing with {!equal}: constants, then variables,
    negations, conjunctions and disjunctions, children compared
    lexicographically. *)
val compare : t -> t -> int

(** {1 Transformation} *)

(** [map_var h f] replaces every leaf [Var v] by the formula [h v]
    (general substitution [F[theta]] of Section 2). *)
val map_var : (int -> t) -> t -> t

(** [rename h f] renames variables by the (injective) map [h]; the result is
    isomorphic to [f]. *)
val rename : (int -> int) -> t -> t

(** [restrict v b f] is [F[X_v := b]] with constant propagation; the result
    does not mention [v]. *)
val restrict : int -> bool -> t -> t

(** [restrict_set bindings f] applies several restrictions at once.  A
    normal subtree that mentions no bound variable is returned as it is. *)
val restrict_set : (int * bool) list -> t -> t

(** [simplify f] propagates constants bottom-up (no other rewriting);
    it is [f] itself when [f] is normal. *)
val simplify : t -> t

(** {1 Printing} *)

(** [pp_with ~var] prints with [&], [|] and [!], and variable [v] as
    [var v]; output is re-parseable by {!Parser.formula_of_string} when
    the names are identifiers. *)
val pp_with : var:(int -> string) -> Format.formatter -> t -> unit

(** [pp] is [pp_with] printing variable [v] as [x<v>]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

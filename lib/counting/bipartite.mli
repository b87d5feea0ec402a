(** Model counting for positive bipartite DNF (the Provan–Ball class).

    Functions [F = ⋁_{(i,j)∈E} X_i ∧ Y_j] are the #P-hard class driving
    the hardness side of the dichotomy (Section 5.3).  The counter is
    exponential in the left part (no polynomial algorithm is expected to
    exist); it serves as the honest hard baseline of experiment E10. *)

(** A bipartite instance: [a] left variables, [b] right variables, edges
    as 0-based (left, right) index pairs. *)
type t = { a : int; b : int; edges : (int * int) list }

(** [make ~a ~b edges] validates and normalizes an instance.
    @raise Invalid_argument on out-of-range edges or negative sizes. *)
val make : a:int -> b:int -> (int * int) list -> t

(** [to_pdnf t] encodes as a positive DNF over variables [2i] (left) and
    [2j+1] (right). *)
val to_pdnf : t -> Nf.pdnf

(** [to_formula t] is the DNF as a formula. *)
val to_formula : t -> Formula.t

(** [all_vars t] is the full [a + b] variable universe of the encoding,
    including isolated vertices. *)
val all_vars : t -> int list

(** [count t] is [#F] over the full universe.
    @raise Invalid_argument beyond 22 left or 62 right
    vertices. *)
val count : t -> Bigint.t

(** [count_by_size t] is the stratified vector over the full universe.
    @raise Invalid_argument beyond 22 left or 62 right
    vertices. *)
val count_by_size : t -> Kvec.t

(** [random ~a ~b ~density ~seed] draws each edge independently with
    probability [density]. *)
val random : a:int -> b:int -> density:float -> seed:int -> t

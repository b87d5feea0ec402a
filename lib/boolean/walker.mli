(** Incremental evaluation of a formula along a growing set of true
    variables — the inner loop of permutation sampling.

    A permutation walk evaluates [F] on every prefix of a player order:
    [F[{}]], [F[{p0}]], [F[{p0, p1}]], …  Re-evaluating the whole
    formula for each prefix costs [O(|F|)] per step.  A walker is [F]
    compiled once into flat arrays of threshold gates ([And] needs all
    of its children true, [Or] one of them; [Not] is pushed down to the
    leaves by De Morgan), each gate linked to its parent and each player
    to its literal leaves.  Adding a player flips its leaves and walks
    up the parent links, stopping at the first gate whose value does not
    change, so a step costs the changed paths, not the formula.

    The compiled {!t} is read-only and may be shared across domains; a
    {!walk} holds one walk's mutable gate counts and belongs to one
    domain. *)

(** A compiled formula over a fixed player array. *)
type t

(** One walk's state: the current prefix's gate counts. *)
type walk

(** [compile ~players f] compiles [f] for walks over [players]; player
    [i] is the variable [players.(i)].
    @raise Invalid_argument if [players] repeats a variable or [f]
    mentions a variable outside [players]. *)
val compile : players:int array -> Formula.t -> t

(** [start t] is a fresh walk at the empty prefix. *)
val start : t -> walk

(** [reset w] returns [w] to the empty prefix. *)
val reset : walk -> unit

(** [add w i] puts player [i] into the prefix.  Each player may be
    added at most once between resets. *)
val add : walk -> int -> unit

(** [value w] is [Formula.eval_set prefix f] for [w]'s current prefix. *)
val value : walk -> bool

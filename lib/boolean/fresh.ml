(** Fresh-variable supply.

    OR-substitutions (Definition 1) replace each variable by a disjunction of
    {e fresh} variables; the supply hands out identifiers strictly above
    everything in an [avoid] set so freshness is guaranteed by construction. *)

type t = { mutable next : int }

(** [make ~avoid] is a supply whose variables are all fresh w.r.t. [avoid]. *)
let make ~avoid =
  let next = match Vset.max_elt_opt avoid with None -> 1 | Some m -> m + 1 in
  { next }

(** [fresh_block t k] returns the next [k] fresh variables, in ascending
    order. *)
let fresh_block t k =
  let first = t.next in
  t.next <- first + k;
  List.init k (fun j -> first + j)

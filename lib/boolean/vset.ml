(** Sets of Boolean variables (variables are integer identifiers).

    Shared throughout the library: formulas, valuations (Section 2 denotes a
    valuation by the set of variables it maps to 1), circuit gate variable
    scopes, and lineage all manipulate variable sets. *)

include Set.Make (Int)

(** [of_range lo hi] is [{lo, lo+1, ..., hi}] (empty when [hi < lo]). *)
let of_range lo hi =
  let rec go acc i = if i < lo then acc else go (add i acc) (i - 1) in
  go empty hi

(** [pp] prints as [{1, 2, 5}]. *)
let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)

(* Iterated merging: each element absorbs every group it touches.  The
   lists involved are small. *)
let components ~vars xs =
  let merge groups x =
    let vs = vars x in
    let touching, rest =
      List.partition (fun (ws, _) -> not (disjoint vs ws)) groups
    in
    let vs' = List.fold_left (fun a (ws, _) -> union a ws) vs touching in
    (vs', x :: List.concat_map snd touching) :: rest
  in
  List.fold_left merge [] xs

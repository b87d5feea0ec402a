(** Sets of Boolean variables (variables are integer identifiers).

    Shared throughout the library: formulas, valuations (Section 2 denotes a
    valuation by the set of variables it maps to 1), circuit gate variable
    scopes, and lineage all manipulate variable sets. *)

include Set.Make (Int)

(** [universe ~who ~noun ~vars support] is [vars] as a set, checked for
    repeats and for covering [support]. *)
let universe ~who ~noun ~vars support =
  let u = of_list vars in
  if cardinal u <> List.length vars then
    invalid_arg (who ^ ": duplicate variables in the universe");
  if not (subset support u) then
    invalid_arg (Printf.sprintf "%s: universe misses %s" who noun);
  u

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

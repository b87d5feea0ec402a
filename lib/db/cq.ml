type term = V of string | C of Value.t
type atom = { rel : string; args : term array; negated : bool }
type t = { atoms : atom list }

let make atoms =
  if atoms = [] then invalid_arg "Cq.make: empty query";
  if List.for_all (fun a -> a.negated) atoms then
    invalid_arg "Cq.make: all atoms negated (unsafe query)";
  { atoms }

let atom rel args = { rel; args = Array.of_list args; negated = false }
let negated_atom rel args = { rel; args = Array.of_list args; negated = true }

let is_positive q = List.for_all (fun a -> not a.negated) q.atoms

let atom_variables a =
  Array.to_list a.args
  |> List.filter_map (function V x -> Some x | C _ -> None)

let is_safe_negation q =
  let positive_vars =
    List.concat_map
      (fun a -> if a.negated then [] else atom_variables a)
      q.atoms
  in
  List.for_all
    (fun a ->
       (not a.negated)
       || List.for_all (fun x -> List.mem x positive_vars) (atom_variables a))
    q.atoms

let variables q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun a ->
       Array.iter
         (function
           | V x ->
             if not (Hashtbl.mem seen x) then begin
               Hashtbl.replace seen x ();
               out := x :: !out
             end
           | C _ -> ())
         a.args)
    q.atoms;
  List.rev !out

let at q x =
  List.mapi (fun i a -> (i, a)) q.atoms
  |> List.filter_map (fun (i, a) ->
      if Array.exists (function V y -> y = x | C _ -> false) a.args then Some i
      else None)

let subset a b = List.for_all (fun i -> List.mem i b) a
let disjoint a b = not (List.exists (fun i -> List.mem i b) a)

let witness_non_hierarchical q =
  let vs = variables q in
  let rec pairs = function
    | [] -> None
    | x :: rest ->
      let bad =
        List.find_opt
          (fun y ->
             let ax = at q x and ay = at q y in
             not (disjoint ax ay || subset ax ay || subset ay ax))
          rest
      in
      (match bad with Some y -> Some (x, y) | None -> pairs rest)
  in
  pairs vs

let is_hierarchical q = witness_non_hierarchical q = None

let is_self_join_free q =
  let names = List.map (fun a -> a.rel) q.atoms in
  List.length names = List.length (List.sort_uniq compare names)

let check_against q db =
  List.iter
    (fun a ->
       let arity =
         try Database.arity_of db a.rel
         with Not_found ->
           invalid_arg ("Cq.check_against: unknown relation " ^ a.rel)
       in
       if arity <> Array.length a.args then
         invalid_arg ("Cq.check_against: arity mismatch for " ^ a.rel))
    q.atoms

let pp_term ppf = function
  | V x -> Format.pp_print_string ppf x
  | C v -> Format.pp_print_string ppf (Value.literal v)

let pp ppf q =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    (fun ppf a ->
       Format.fprintf ppf "%s%s(%a)" (if a.negated then "!" else "") a.rel
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
            pp_term)
         (Array.to_list a.args))
    ppf q.atoms

let to_string q = Format.asprintf "%a" pp q

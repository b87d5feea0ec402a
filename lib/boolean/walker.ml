(* Gates are numbered in preorder.  Gate 0 is a one-child [And] over the
   whole formula, so a literal or constant at the top needs no special
   case.  A gate is true iff its count of true children reaches [need]:
   the arity for [And], 1 for [Or].  With [Not] pushed to the leaves
   every gate is monotone in its children, so a change travels up
   unchanged in sign. *)
type t = {
  parent : int array;  (* -1 at the root *)
  need : int array;
  init : int array;  (* true children under the empty prefix *)
  leaf_gate : int array array;  (* per player: the gate each leaf feeds *)
  leaf_step : int array array;
      (* per player, per leaf: +1 for a positive literal, which turns
         true; -1 for a negative one, which turns false *)
}

type walk = { t : t; count : int array }

let rec count_gates f =
  match Formula.view f with
  | Formula.True | False | Var _ -> 0
  | Not g -> count_gates g
  | And gs | Or gs -> List.fold_left (fun n g -> n + count_gates g) 1 gs

let compile ~players f =
  let n = Array.length players in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem index v then invalid_arg "Walker.compile: repeated player";
      Hashtbl.replace index v i)
    players;
  let m = 1 + count_gates f in
  let parent = Array.make m (-1)
  and need = Array.make m 0
  and init = Array.make m 0
  and leaves = Array.make n [] in
  let next = ref 0 in
  (* [node up pos f] compiles [f], negated unless [pos], under gate [up]
     and returns its value under the empty prefix *)
  let rec node up pos f =
    match Formula.view f with
    | Formula.True -> pos
    | False -> not pos
    | Var v -> (
        match Hashtbl.find_opt index v with
        | Some i ->
            leaves.(i) <- (up, if pos then 1 else -1) :: leaves.(i);
            not pos
        | None -> invalid_arg "Walker.compile: variable outside players")
    | Not g -> node up (not pos) g
    | And gs -> gate up ~all:pos pos gs
    | Or gs -> gate up ~all:(not pos) pos gs
  and gate up ~all pos gs =
    let g = !next in
    incr next;
    parent.(g) <- up;
    need.(g) <- (if all then List.length gs else 1);
    init.(g) <-
      List.fold_left (fun c h -> if node g pos h then c + 1 else c) 0 gs;
    init.(g) >= need.(g)
  in
  ignore (gate (-1) ~all:true true [ f ]);
  let leaf_gate = Array.map (fun l -> Array.of_list (List.rev_map fst l)) leaves
  and leaf_step = Array.map (fun l -> Array.of_list (List.rev_map snd l)) leaves in
  { parent; need; init; leaf_gate; leaf_step }

let start t = { t; count = Array.copy t.init }

let reset w = Array.blit w.t.init 0 w.count 0 (Array.length w.count)

(* One child of gate [g] turned true ([step] = 1) or false ([step] = -1);
   the gate's own value changes exactly when its count crosses [need]. *)
let rec push t count g step =
  let before = count.(g) in
  let after = before + step in
  count.(g) <- after;
  let need = t.need.(g) in
  if (before >= need) <> (after >= need) && t.parent.(g) >= 0 then
    push t count t.parent.(g) step

let add w i =
  let gates = w.t.leaf_gate.(i) and steps = w.t.leaf_step.(i) in
  for k = 0 to Array.length gates - 1 do
    push w.t w.count gates.(k) steps.(k)
  done

let value w = w.count.(0) >= w.t.need.(0)

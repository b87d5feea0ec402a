(** Model counting for positive bipartite DNF (the Provan–Ball class).

    Functions [F = ⋁_{(i,j)∈E} X_i ∧ Y_j] are the #P-hard class driving the
    hardness side of the dichotomy (Section 5.3).  The counter below sums,
    over the subsets [S] of the left part, the number of right-part
    assignments avoiding the neighbourhood [N(S)] — so it is exponential in
    the left part.  It serves as the honest hard baseline of experiment
    E10; no polynomial algorithm is expected to exist (#P-hardness). *)

(** A bipartite instance: [a] left variables, [b] right variables, and
    edges as pairs of 0-based (left, right) indices. *)
type t = { a : int; b : int; edges : (int * int) list }

(** Guard: the enumeration is over [2^a] subsets. *)
let max_left = 22

let make ~a ~b edges =
  if a < 0 || b < 0 then invalid_arg "Bipartite.make: negative part size";
  List.iter
    (fun (i, j) ->
       if i < 0 || i >= a || j < 0 || j >= b then
         invalid_arg "Bipartite.make: edge out of range")
    edges;
  { a; b; edges = List.sort_uniq compare edges }

(** [to_pdnf t] encodes the instance as a positive DNF over variables
    [2i] (left) and [2j+1] (right), as in {!Nf.bipartite}. *)
let to_pdnf t =
  let d, _, _ = Nf.bipartite ~edges:t.edges in
  d

(** [to_formula t] is the formula [⋁ X_i ∧ Y_j]. *)
let to_formula t = Nf.pdnf_to_formula (to_pdnf t)

(** [all_vars t] is the full [a + b] variable universe of the encoding,
    including isolated vertices. *)
let all_vars t =
  List.init t.a (fun i -> 2 * i) @ List.init t.b (fun j -> (2 * j) + 1)

(* Right-neighbourhood bitmasks per left vertex, one bit per right
   vertex: the counters enumerate [2^a] left subsets and keep [N(S)] in
   one int, so both parts are bounded here, for both counters. *)
let neighbours ~caller t =
  if t.a > max_left then invalid_arg (caller ^ ": left part too large");
  if t.b > 62 then invalid_arg (caller ^ ": right part too large");
  let nb = Array.make t.a 0 in
  List.iter (fun (i, j) -> nb.(i) <- nb.(i) lor (1 lsl j)) t.edges;
  nb

(** [count t] is [#F] over the full [a + b] universe. *)
let count t =
  let nb = neighbours ~caller:"Bipartite.count" t in
  let non_models = ref Bigint.zero in
  (* N(S) built incrementally: neigh(S) = neigh(S \ lowbit) | nb(lowbit). *)
  let memo = Array.make (1 lsl t.a) 0 in
  for s = 1 to (1 lsl t.a) - 1 do
    let low = s land -s in
    let i =
      let rec bit k = if 1 lsl k = low then k else bit (k + 1) in
      bit 0
    in
    memo.(s) <- memo.(s lxor low) lor nb.(i)
  done;
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  for s = 0 to (1 lsl t.a) - 1 do
    let blocked = popcount memo.(s) in
    non_models := Bigint.add !non_models (Combi.pow2 (t.b - blocked))
  done;
  Bigint.sub (Combi.pow2 (t.a + t.b)) !non_models

(** [count_by_size t] is the size-stratified vector over the full
    [a + b] universe. *)
let count_by_size t =
  let nb = neighbours ~caller:"Bipartite.count_by_size" t in
  let n = t.a + t.b in
  let non = Array.make (n + 1) Bigint.zero in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  for s = 0 to (1 lsl t.a) - 1 do
    let neigh = ref 0 in
    for i = 0 to t.a - 1 do
      if s land (1 lsl i) <> 0 then neigh := !neigh lor nb.(i)
    done;
    let size_s = popcount s in
    let free = t.b - popcount !neigh in
    (* Non-models extending S: pick any j of the free right vertices. *)
    for j = 0 to free do
      non.(size_s + j) <-
        Bigint.add non.(size_s + j) (Combi.binomial free j)
    done
  done;
  Kvec.sub (Kvec.all ~n) (Kvec.make ~n non)

(** [random ~a ~b ~density ~seed] draws a random instance: each of the
    [a*b] edges present independently with probability [density]. *)
let random ~a ~b ~density ~seed =
  let st = Random.State.make [| seed |] in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      if Random.State.float st 1.0 < density then edges := (i, j) :: !edges
    done
  done;
  make ~a ~b !edges

(* Order statistics over float samples. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Linear interpolation between closest ranks, on an already sorted
   array; nan when empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* First and third quartiles as Python's [statistics.quantiles(data, n=4)]
   computes them (the default "exclusive" method), which is how the
   spread of a set of runs is judged. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
    in
    (cut 1, cut 3)

(* A growable float buffer, one per client domain. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

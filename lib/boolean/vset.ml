(* A set is one int array of ascending (block, word) pairs.  Block [b]
   holds the ids [62b .. 62b+61], id [62b+i] being bit [i] of its word,
   so every word is positive.  No stored word is zero, which makes the
   form canonical: the empty set is [[||]], and two sets are equal
   exactly when their arrays are.  Helpers that scan take both arrays as
   arguments rather than closing over them, so a scan allocates
   nothing. *)

type t = int array

let width = 62
let empty = [||]
let is_empty s = Array.length s = 0
let blocks s = Array.length s / 2

let negative who v =
  invalid_arg (Printf.sprintf "Vset.%s: negative id %d" who v)

(* The number of bits set in a word of at most 62 bits. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

(* The position of the lowest bit of a nonzero word, and of the highest. *)
let low_bit w = popcount ((w land -w) - 1)

let high_bit w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  popcount (w lor (w lsr 32)) - 1

(* The index of the first pair whose block is at least [b]. *)
let seek (s : t) b =
  let lo = ref 0 and hi = ref (blocks s) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if s.(2 * mid) < b then lo := mid + 1 else hi := mid
  done;
  !lo

let mem v s =
  v >= 0
  &&
  let b = v / width in
  let i = 2 * seek s b in
  i < Array.length s && s.(i) = b && s.(i + 1) land (1 lsl (v mod width)) <> 0

let singleton v =
  if v < 0 then negative "singleton" v;
  [| v / width; 1 lsl (v mod width) |]

let add v s =
  if v < 0 then negative "add" v;
  let b = v / width and bit = 1 lsl (v mod width) in
  let i = 2 * seek s b and n = Array.length s in
  if i < n && s.(i) = b then
    if s.(i + 1) land bit <> 0 then s
    else begin
      let s' = Array.copy s in
      s'.(i + 1) <- s.(i + 1) lor bit;
      s'
    end
  else begin
    let s' = Array.make (n + 2) 0 in
    Array.blit s 0 s' 0 i;
    s'.(i) <- b;
    s'.(i + 1) <- bit;
    Array.blit s i s' (i + 2) (n - i);
    s'
  end

let remove v s =
  if not (mem v s) then s
  else begin
    let i = 2 * seek s (v / width) and n = Array.length s in
    let w = s.(i + 1) land lnot (1 lsl (v mod width)) in
    if w <> 0 then begin
      let s' = Array.copy s in
      s'.(i + 1) <- w;
      s'
    end
    else begin
      let s' = Array.make (n - 2) 0 in
      Array.blit s 0 s' 0 i;
      Array.blit s (i + 2) s' i (n - i - 2);
      s'
    end
  end

let of_list l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n > 0 && a.(0) < 0 then negative "of_list" a.(0);
  let starts i = i = 0 || a.(i) / width <> a.(i - 1) / width in
  let pairs = ref 0 in
  for i = 0 to n - 1 do if starts i then incr pairs done;
  let s = Array.make (2 * !pairs) 0 and k = ref (-2) in
  for i = 0 to n - 1 do
    if starts i then begin
      k := !k + 2;
      s.(!k) <- a.(i) / width
    end;
    s.(!k + 1) <- s.(!k + 1) lor (1 lsl (a.(i) mod width))
  done;
  s

(* [union] returns an argument that holds the other, so a node whose
   children's sets nest allocates no set. *)
let union a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let a_holds_b = ref true and b_holds_a = ref true in
  while !i < la && !j < lb do
    let ba = a.(!i) and bb = b.(!j) in
    if ba < bb then begin
      b_holds_a := false;
      i := !i + 2
    end
    else if bb < ba then begin
      a_holds_b := false;
      j := !j + 2
    end
    else begin
      let wa = a.(!i + 1) and wb = b.(!j + 1) in
      if wb land lnot wa <> 0 then a_holds_b := false;
      if wa land lnot wb <> 0 then b_holds_a := false;
      i := !i + 2;
      j := !j + 2
    end;
    n := !n + 2
  done;
  if !i < la then b_holds_a := false;
  if !j < lb then a_holds_b := false;
  if !a_holds_b then a
  else if !b_holds_a then b
  else begin
    let s = Array.make (!n + (la - !i) + (lb - !j)) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la || !j < lb do
      let ba = if !i < la then a.(!i) else max_int
      and bb = if !j < lb then b.(!j) else max_int in
      if ba < bb then begin
        s.(!k) <- ba;
        s.(!k + 1) <- a.(!i + 1);
        i := !i + 2
      end
      else if bb < ba then begin
        s.(!k) <- bb;
        s.(!k + 1) <- b.(!j + 1);
        j := !j + 2
      end
      else begin
        s.(!k) <- ba;
        s.(!k + 1) <- a.(!i + 1) lor b.(!j + 1);
        i := !i + 2;
        j := !j + 2
      end;
      k := !k + 2
    done;
    s
  end

(* The blocks of [a], each word [w] replaced by [w land mask w'], where
   [w'] is the word of that block in [b] (0 if [b] lacks the block);
   zero words are dropped, and [a] itself returned if no word moves. *)
let keep_bits ~mask a b =
  let la = Array.length a and lb = Array.length b in
  let s = Array.make la 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la do
    let ba = a.(!i) in
    while !j < lb && b.(!j) < ba do j := !j + 2 done;
    let w' = if !j < lb && b.(!j) = ba then b.(!j + 1) else 0 in
    let w = a.(!i + 1) land mask w' in
    if w <> 0 then begin
      s.(!k) <- ba;
      s.(!k + 1) <- w;
      k := !k + 2
    end;
    i := !i + 2
  done;
  if !k = la && Array.for_all2 Int.equal a s then a else Array.sub s 0 !k

let inter a b = keep_bits ~mask:Fun.id a b
let diff a b = keep_bits ~mask:lnot a b

let rec disjoint_from a b i j =
  i >= Array.length a
  || j >= Array.length b
  ||
  let ba = a.(i) and bb = b.(j) in
  if ba < bb then disjoint_from a b (i + 2) j
  else if bb < ba then disjoint_from a b i (j + 2)
  else a.(i + 1) land b.(j + 1) = 0 && disjoint_from a b (i + 2) (j + 2)

let disjoint a b = disjoint_from a b 0 0

let rec subset_from a b i j =
  i >= Array.length a
  || j < Array.length b
     &&
     let ba = a.(i) and bb = b.(j) in
     if bb < ba then subset_from a b i (j + 2)
     else
       ba = bb
       && a.(i + 1) land lnot b.(j + 1) = 0
       && subset_from a b (i + 2) (j + 2)

let subset a b = subset_from a b 0 0

let rec equal_from (a : t) b i =
  i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

(* [Set.Make (Int)]'s order: ascending element sequences compared
   lexicographically, a proper prefix first.  Let [e] be the lowest id
   in exactly one of the two sets; the set holding it is smaller exactly
   when the other has an id above [e]. *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i = la then (if i = lb then 0 else -1)
  else if i = lb then 1
  else if a.(i) <> b.(i) then (if a.(i) < b.(i) then -1 else 1)
  else
    let wa = a.(i + 1) and wb = b.(i + 1) in
    if wa = wb then compare_from a b (i + 2)
    else
      let e = (wa lxor wb) land -(wa lxor wb) in
      let above = lnot (e lor (e - 1)) in
      if wa land e <> 0 then (if wb land above <> 0 || i + 2 < lb then -1 else 1)
      else if wa land above <> 0 || i + 2 < la then 1
      else -1

let compare a b = if a == b then 0 else compare_from a b 0

let cardinal s =
  let n = ref 0 in
  for i = 0 to blocks s - 1 do n := !n + popcount s.((2 * i) + 1) done;
  !n

let fold f s init =
  let acc = ref init in
  for i = 0 to blocks s - 1 do
    let base = s.(2 * i) * width and w = ref s.((2 * i) + 1) in
    while !w <> 0 do
      acc := f (base + low_bit !w) !acc;
      w := !w land (!w - 1)
    done
  done;
  !acc

let iter f s = fold (fun v () -> f v) s ()

(* The ids of one word, ascending, ahead of [rest]. *)
let rec word_ids base w rest =
  if w = 0 then rest else (base + low_bit w) :: word_ids base (w land (w - 1)) rest

let elements s =
  let acc = ref [] in
  for i = blocks s - 1 downto 0 do
    acc := word_ids (s.(2 * i) * width) s.((2 * i) + 1) !acc
  done;
  !acc

let filter p s = of_list (List.filter p (elements s))
let min_elt_opt s = if is_empty s then None else Some ((s.(0) * width) + low_bit s.(1))
let min_elt s = match min_elt_opt s with Some v -> v | None -> raise Not_found

let max_elt_opt s =
  let n = Array.length s in
  if n = 0 then None else Some ((s.(n - 2) * width) + high_bit s.(n - 1))

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

(* A vector over an [n]-variable universe has [n + 1] entries, entry [k]
   the number of models of size [k].  The tiers are canonical: [Big]
   holds an entry that does not fit a native int, so equal vectors share
   a tier, which [equal], [hash] and [is_zero] rely on. *)

type t = Native of int array | Big of Bigint.t array

let length = function Native a -> Array.length a | Big a -> Array.length a
let universe_size v = length v - 1
let native_lo = Bigint.of_int min_int
let native_hi = Bigint.of_int max_int
let fits c = Bigint.leq native_lo c && Bigint.leq c native_hi

(* The canonical vector of the entries [a]. *)
let of_bigs a =
  if Array.for_all fits a then Native (Array.map Bigint.to_int a) else Big a

let bigs = function Native a -> Array.map Bigint.of_int a | Big a -> a

let check_universe n = if n < 0 then invalid_arg "Kvec.make: negative universe"

let make ~n counts =
  check_universe n;
  if Array.length counts <> n + 1 then invalid_arg "Kvec.make: length mismatch";
  of_bigs (Array.copy counts)

let get v k =
  if k < 0 || k > universe_size v then Bigint.zero
  else match v with Native a -> Bigint.of_int a.(k) | Big a -> a.(k)

let to_array = function Big a -> Array.copy a | v -> bigs v

(* Bounds on magnitudes saturate at [max_int], which reads "may not
   fit": a native loop runs only under a bound below it, so no entry
   and no partial sum it forms overflows. *)
let sat_add x y = if x > max_int - y then max_int else x + y
let sat_mul x y = if x <> 0 && y > max_int / x then max_int else x * y
let mag x = if x = min_int then max_int else abs x

let max_mag a =
  let m = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = mag a.(i) in
    if x > !m then m := x
  done;
  !m

let l1 a =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do s := sat_add !s (mag a.(i)) done;
  !s

let total = function
  | Native a when l1 a < max_int -> Bigint.of_int (Array.fold_left ( + ) 0 a)
  | v -> Array.fold_left Bigint.add Bigint.zero (bigs v)

let equal a b =
  match (a, b) with
  | Native x, Native y ->
    (* an int loop: [Array.for_all2] would allocate its closure *)
    let n = Array.length x in
    n = Array.length y
    &&
    let i = ref 0 in
    while !i < n && x.(!i) = y.(!i) do incr i done;
    !i = n
  | Big x, Big y ->
    Array.length x = Array.length y && Array.for_all2 Bigint.equal x y
  | _ -> false

let hash = function
  | Native a -> Array.fold_left (fun h c -> (h * 31) + c) (Array.length a) a
  | Big a ->
    Array.fold_left (fun h c -> (h * 31) + Bigint.hash c) (Array.length a) a

let zero ~n =
  check_universe n;
  Native (Array.make (n + 1) 0)

(* Binomial rows for [all ~n], built once per [n] and shared thereafter
   ([Combi.per_n]): rows are immutable and every operation below
   allocates fresh output arrays, never mutating a vector in place.
   [C(n,k+1) = C(n,k)·(n−k)/(k+1)] divides exactly.  Rows up to n = 65
   are native: C(65,32) fits a native int and C(66,33) does not. *)
let binom_row =
  Combi.per_n (fun n ->
      let row = Array.make (n + 1) Bigint.one in
      for k = 0 to n - 1 do
        row.(k + 1) <-
          Bigint.div (Bigint.mul_int row.(k) (n - k)) (Bigint.of_int (k + 1))
      done;
      of_bigs row)

let all ~n =
  check_universe n;
  binom_row n

let singleton_true = Native [| 0; 1 |]
let singleton_false = Native [| 1; 0 |]
let const_true ~n = all ~n
let const_false ~n = zero ~n

let conv_native x y =
  let nx = Array.length x - 1 and ny = Array.length y - 1 in
  let out = Array.make (nx + ny + 1) 0 in
  for i = 0 to nx do
    let xi = x.(i) in
    if xi <> 0 then
      for j = 0 to ny do
        out.(i + j) <- out.(i + j) + (xi * y.(j))
      done
  done;
  out

let conv_big x y =
  let nx = Array.length x - 1 and ny = Array.length y - 1 in
  let out = Array.make (nx + ny + 1) Bigint.zero in
  for i = 0 to nx do
    let xi = x.(i) in
    if not (Bigint.is_zero xi) then
      for j = 0 to ny do
        let yj = y.(j) in
        if not (Bigint.is_zero yj) then
          out.(i + j) <- Bigint.add out.(i + j) (Bigint.mul xi yj)
      done
  done;
  out

(* An entry of [x * y] is at most [|x|_1 · max |y|]. *)
let conv a b =
  match (a, b) with
  | Native x, Native y when sat_mul (l1 x) (max_mag y) < max_int ->
    Native (conv_native x y)
  | _ -> of_bigs (conv_big (bigs a) (bigs b))

(* Every partial product of a list of native vectors, and every partial
   sum forming it, is at most the product of the parts' [|·|_1]. *)
let conv_list = function
  | [] -> const_true ~n:0
  | [ p ] -> p
  | first :: rest as parts ->
    (match List.filter_map (function Native a -> Some a | Big _ -> None) parts with
     | n0 :: ns
       when List.compare_lengths ns rest = 0
            && List.fold_left (fun b a -> sat_mul b (l1 a)) (l1 n0) ns < max_int ->
       Native (List.fold_left conv_native n0 ns)
     | _ -> of_bigs (List.fold_left (fun acc p -> conv_big acc (bigs p)) (bigs first) rest))

(* [sign] is 1 for the sum, -1 for the difference. *)
let pointwise ~sign a b =
  if length a <> length b then invalid_arg "Kvec: universe-size mismatch";
  match (a, b) with
  | Native x, Native y when sat_add (max_mag x) (max_mag y) < max_int ->
    let out = Array.make (Array.length x) 0 in
    for i = 0 to Array.length x - 1 do
      out.(i) <- x.(i) + (sign * y.(i))
    done;
    Native out
  | _ ->
    let op = if sign > 0 then Bigint.add else Bigint.sub in
    of_bigs (Array.map2 op (bigs a) (bigs b))

let add a b = pointwise ~sign:1 a b
let sub a b = pointwise ~sign:(-1) a b

let extend v ~extra =
  if extra < 0 then invalid_arg "Kvec.extend: negative"
  else if extra = 0 then v
  else conv v (all ~n:extra)

let neg = function
  | Native a when max_mag a < max_int -> Native (Array.map (fun x -> -x) a)
  | v -> of_bigs (Array.map Bigint.neg (bigs v))

let is_zero = function Native a -> Array.for_all (fun c -> c = 0) a | Big _ -> false

(* Series division from [f]'s lowest nonzero coefficient [f_s]: the
   coefficient [k + s] of [q·f] is [Σ_j q_j·f_(s+k−j)], which gives
   [q_k] once [q_0..q_(k−1)] are known.  The quotient is integral, so
   each division by [f_s] is exact.  [zero], [is_zero], [sub_mul] and
   [div] are the tier's arithmetic. *)
let series_div ~zero ~is_zero ~sub_mul ~div p f ~m =
  let s =
    match Array.find_index (fun c -> not (is_zero c)) f with
    | Some s -> s
    | None -> invalid_arg "Kvec.div_exact: zero divisor"
  in
  let nf = Array.length f - 1 in
  let q = Array.make (m + 1) zero in
  for k = 0 to m do
    let acc = ref p.(k + s) in
    for j = Stdlib.max 0 (k + s - nf) to k - 1 do
      let c = f.(s + k - j) in
      if not (is_zero c || is_zero q.(j)) then acc := sub_mul !acc q.(j) c
    done;
    q.(k) <- div !acc f.(s)
  done;
  q

(* A factor [q] of [p] over [m] variables has [|q_j| ≤ C(m,⌊m/2⌋)·|p|_1]
   (Mahler's measure, DESIGN.md §14f), which bounds the native loop. *)
let div_exact p f =
  let m = universe_size p - universe_size f in
  if m < 0 then invalid_arg "Kvec.div_exact: divisor over a larger universe";
  let central = match binom_row m with Native r -> r.(m / 2) | Big _ -> max_int in
  match (p, f) with
  | Native pa, Native fa
    when sat_add (max_mag pa) (sat_mul (sat_mul central (l1 pa)) (l1 fa))
         < max_int ->
    Native
      (series_div ~zero:0 ~is_zero:(fun c -> c = 0)
         ~sub_mul:(fun acc x y -> acc - (x * y)) ~div:( / ) pa fa ~m)
  | _ ->
    of_bigs
      (series_div ~zero:Bigint.zero ~is_zero:Bigint.is_zero
         ~sub_mul:(fun acc x y -> Bigint.sub acc (Bigint.mul x y))
         ~div:(fun x lead ->
           if Bigint.equal lead Bigint.one then x else Bigint.div x lead)
         (bigs p) (bigs f) ~m)

let complement v = sub (all ~n:(universe_size v)) v

let disjoint_or a b =
  (* Non-models multiply across disjoint universes. *)
  let non_a = complement a and non_b = complement b in
  sub (all ~n:(universe_size a + universe_size b)) (conv non_a non_b)

let weighted_sum v w =
  (* Horner from the top coefficient. *)
  let acc = ref Bigint.zero in
  for k = universe_size v downto 0 do
    acc := Bigint.add (Bigint.mul !acc w) (get v k)
  done;
  !acc

let pp ppf v =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Bigint.pp)
    (Array.to_list (to_array v))

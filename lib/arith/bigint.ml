(* Two-tier exact integers.

   [Small n] holds any value representable as a native 63-bit [int];
   [Big { sg; mag }] holds everything else as sign + little-endian base-2^15
   magnitude with no leading zero limb.  The representation is canonical:
   a value fitting a native int is ALWAYS [Small] (constructors demote), so
   structural equality coincides with numerical equality and [Small] never
   overlaps [Big].  [Big.sg] is [-1] or [1]; zero is [Small 0].

   Fast paths: add/sub/mul/divmod/compare/gcd on two [Small]s run on native
   ints with explicit overflow checks and fall back to the magnitude kernel
   only on actual overflow.  The magnitude kernel uses Karatsuba above
   [kara_threshold] limbs and Knuth Algorithm D (quotient-digit estimation)
   for long division. *)

let base_bits = 15
let base = 1 lsl base_bits (* 32768 *)
let mask = base - 1

type t =
  | Small of int
  | Big of { sg : int; mag : int array }

let zero = Small 0
let of_int n = Small n
let one = Small 1
let two = Small 2
let minus_one = Small (-1)

(* Magnitude of [n] as limbs, for any [n <> 0] including [min_int]
   (computed on the negative side so [min_int] does not overflow). *)
let mag_of_int n =
  let m = if n < 0 then n else -n in
  let rec count m acc = if m = 0 then acc else count (m / base) (acc + 1) in
  let len = count m 0 in
  let mag = Array.make len 0 in
  let rec fill i m =
    if m <> 0 then begin
      mag.(i) <- -(m mod base);
      fill (i + 1) (m / base)
    end
  in
  fill 0 m;
  mag

(* Robust to non-canonical (leading-zero-padded) magnitudes. *)
let effective_length a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  !n

(* Native value of a magnitude when it fits, accumulating on the negative
   side so that [min_int] round-trips. *)
let small_of_mag sg mag len =
  let limit = Stdlib.min_int in
  let rec go i acc =
    if i < 0 then Some acc
    else begin
      let d = mag.(i) in
      if acc < limit / base then None
      else begin
        let acc = acc * base in
        if acc < limit + d then None else go (i - 1) (acc - d)
      end
    end
  in
  match go (len - 1) 0 with
  | None -> None
  | Some negv ->
    if sg < 0 then Some negv
    else if negv = Stdlib.min_int then None
    else Some (-negv)

(* Canonical constructor: trims leading zeros, demotes to [Small] whenever
   the value fits a native int.  Magnitudes of <= 4 limbs (60 bits) always
   fit; 5 limbs may; >= 6 never do. *)
let make_big sg mag =
  let len = effective_length mag in
  if len = 0 then Small 0
  else begin
    let small = if len <= 5 then small_of_mag sg mag len else None in
    match small with
    | Some v -> Small v
    | None ->
      Big { sg; mag = (if len = Array.length mag then mag else Array.sub mag 0 len) }
  end

(* Decompose into sign and magnitude for the slow paths. *)
let sg_mag t =
  match t with
  | Small 0 -> (0, [||])
  | Small n -> ((if n < 0 then -1 else 1), mag_of_int n)
  | Big b -> (b.sg, b.mag)

let sign t =
  match t with
  | Small n -> Stdlib.compare n 0
  | Big b -> b.sg

let is_zero t =
  match t with
  | Small 0 -> true
  | _ -> false

let neg t =
  match t with
  | Small n ->
    if n = Stdlib.min_int then Big { sg = 1; mag = mag_of_int n } else Small (-n)
  | Big b -> make_big (-b.sg) b.mag

let abs t = if sign t < 0 then neg t else t

let compare_mag a b =
  let la = effective_length a and lb = effective_length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  match a, b with
  | Small x, Small y -> Stdlib.compare x y
  | Small _, Big y -> -y.sg (* |Big| > |Small| always, so Big's sign decides *)
  | Big x, Small _ -> x.sg
  | Big x, Big y ->
    if x.sg <> y.sg then Stdlib.compare x.sg y.sg
    else if x.sg >= 0 then compare_mag x.mag y.mag
    else compare_mag y.mag x.mag

let equal a b =
  match a, b with
  | Small x, Small y -> x = y
  | Big x, Big y -> x.sg = y.sg && x.mag = y.mag
  | _ -> false

let lt a b = compare a b < 0
let leq a b = compare a b <= 0

(* ------------------------------------------------------------------ *)
(* Magnitude kernel                                                   *)
(* ------------------------------------------------------------------ *)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let out = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  out.(l) <- !carry;
  out

(* Requires [a >= b] numerically; tolerates leading zeros and [b] arrays
   longer than [a]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let out = Array.make l 0 in
  let borrow = ref 0 in
  for i = 0 to l - 1 do
    let d =
      (if i < la then a.(i) else 0) - (if i < lb then b.(i) else 0) - !borrow
    in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

(* Multiply a magnitude by a small non-negative int (< 2^30). *)
let mul_small_mag a k =
  if k = 0 || Array.length a = 0 then [||]
  else begin
    let la = Array.length a in
    let out = Array.make (la + 3) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) * k) + !carry in
      out.(i) <- v land mask;
      carry := v lsr base_bits
    done;
    let i = ref la in
    while !carry <> 0 do
      out.(!i) <- !carry land mask;
      carry := !carry lsr base_bits;
      incr i
    done;
    out
  end

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let v = out.(i + j) + (ai * b.(j)) + !carry in
          out.(i + j) <- v land mask;
          carry := v lsr base_bits
        done;
        out.(i + lb) <- out.(i + lb) + !carry
      end
    done;
    out
  end

(* Karatsuba kicks in when the smaller operand has at least this many limbs
   (~360 bits).  Tuned with bench section E22; see DESIGN.md to retune. *)
let kara_threshold = 24

(* Add [src] (value) into [out] starting at limb [off], with carry. *)
let add_into out src off =
  let ls = effective_length src in
  let carry = ref 0 in
  let i = ref 0 in
  while !i < ls || !carry <> 0 do
    let j = off + !i in
    let s = out.(j) + (if !i < ls then src.(!i) else 0) + !carry in
    out.(j) <- s land mask;
    carry := s lsr base_bits;
    incr i
  done

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la = 1 then mul_small_mag b a.(0)
  else if lb = 1 then mul_small_mag a b.(0)
  else if Stdlib.min la lb < kara_threshold then mul_mag_school a b
  else begin
    (* Karatsuba: split both operands at half the larger length. *)
    let m = (Stdlib.max la lb + 1) / 2 in
    let lo x lx = Array.sub x 0 (Stdlib.min lx m) in
    let hi x lx = if lx <= m then [||] else Array.sub x m (lx - m) in
    let a0 = lo a la and a1 = hi a la in
    let b0 = lo b lb and b1 = hi b lb in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let z1 = sub_mag (mul_mag (add_mag a0 a1) (add_mag b0 b1)) (add_mag z0 z2) in
    let out = Array.make (la + lb) 0 in
    add_into out z0 0;
    add_into out z1 m;
    add_into out z2 (2 * m);
    out
  end

(* Divide a magnitude by a small positive int (< 2^30): (quotient, rem). *)
let divmod_small_mag a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth Algorithm D: normalize so the top divisor limb is >= base/2, then
   estimate each quotient digit from the top two dividend limbs against the
   top divisor limb, correct with the next divisor limb, multiply-subtract,
   and (rarely) add back.  Returns raw (quotient, remainder) magnitudes. *)
let divmod_mag a b =
  let m = effective_length b in
  if m = 0 then raise Division_by_zero;
  let n = effective_length a in
  let a = if n = Array.length a then a else Array.sub a 0 n in
  let b = if m = Array.length b then b else Array.sub b 0 m in
  if n < m || (n = m && compare_mag a b < 0) then ([||], a)
  else if m = 1 then begin
    let q, r = divmod_small_mag a b.(0) in
    (q, [| r |])
  end
  else begin
    (* Normalization shift. *)
    let s =
      let s = ref 0 and v = ref b.(m - 1) in
      while !v < base / 2 do
        v := !v lsl 1;
        incr s
      done;
      !s
    in
    let u = Array.make (n + 1) 0 in
    u.(n) <- (a.(n - 1) lsr (base_bits - s)) land mask;
    for i = n - 1 downto 1 do
      u.(i) <- ((a.(i) lsl s) lor (a.(i - 1) lsr (base_bits - s))) land mask
    done;
    u.(0) <- (a.(0) lsl s) land mask;
    let v = Array.make m 0 in
    for i = m - 1 downto 1 do
      v.(i) <- ((b.(i) lsl s) lor (b.(i - 1) lsr (base_bits - s))) land mask
    done;
    v.(0) <- (b.(0) lsl s) land mask;
    let vh = v.(m - 1) and vl = v.(m - 2) in
    let q = Array.make (n - m + 1) 0 in
    for j = n - m downto 0 do
      let num = (u.(j + m) lsl base_bits) lor u.(j + m - 1) in
      let qhat = ref (num / vh) and rhat = ref (num mod vh) in
      let adjusting = ref true in
      while
        !adjusting
        && (!qhat >= base || !qhat * vl > (!rhat lsl base_bits) lor u.(j + m - 2))
      do
        decr qhat;
        rhat := !rhat + vh;
        if !rhat >= base then adjusting := false
      done;
      (* Multiply-subtract qhat*v from u[j .. j+m]. *)
      let borrow = ref 0 in
      for i = 0 to m - 1 do
        let p = !qhat * v.(i) in
        let d = u.(i + j) - !borrow - (p land mask) in
        u.(i + j) <- d land mask;
        borrow := (p lsr base_bits) - (d asr base_bits)
      done;
      let d = u.(j + m) - !borrow in
      u.(j + m) <- d;
      if d < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        decr qhat;
        let carry = ref 0 in
        for i = 0 to m - 1 do
          let s2 = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s2 land mask;
          carry := s2 lsr base_bits
        done;
        u.(j + m) <- u.(j + m) + !carry
      end;
      q.(j) <- !qhat
    done;
    (* Denormalize the remainder u[0 .. m-1]. *)
    let r = Array.make m 0 in
    for i = 0 to m - 1 do
      r.(i) <- ((u.(i) lsr s) lor ((u.(i + 1) lsl (base_bits - s)) land mask)) land mask
    done;
    (q, r)
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic with native fast paths                                  *)
(* ------------------------------------------------------------------ *)

let add_big a b =
  let sa, ma = sg_mag a and sb, mb = sg_mag b in
  if sa = 0 then b
  else if sb = 0 then a
  else if sa = sb then make_big sa (add_mag ma mb)
  else begin
    match compare_mag ma mb with
    | 0 -> Small 0
    | c when c > 0 -> make_big sa (sub_mag ma mb)
    | _ -> make_big sb (sub_mag mb ma)
  end

let add a b =
  match a, b with
  | Small 0, _ -> b
  | _, Small 0 -> a
  | Small x, Small y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 then add_big a b else Small s
  | _ -> add_big a b

let sub a b = add a (neg b)
let succ t = add t one
let pred t = sub t one

let mul_big a b =
  let sa, ma = sg_mag a and sb, mb = sg_mag b in
  if sa = 0 || sb = 0 then Small 0 else make_big (sa * sb) (mul_mag ma mb)

let mul a b =
  match a, b with
  | Small 0, _ | _, Small 0 -> Small 0
  | Small 1, _ -> b
  | _, Small 1 -> a
  | Small x, Small y when x <> Stdlib.min_int && y <> Stdlib.min_int ->
    let ax = Stdlib.abs x and ay = Stdlib.abs y in
    if ax lor ay < 0x4000_0000 then Small (x * y)
    else begin
      (* A wrapped product differs from the true one by k*2^63 with k <> 0,
         and |y| <= 2^62, so the division check is exact. *)
      let p = x * y in
      if p / y = x then Small p else mul_big a b
    end
  | _ -> mul_big a b

let mul_int t k =
  match t with
  | Small _ -> mul t (Small k)
  | Big b ->
    if k = 0 then Small 0
    else if k = 1 then t
    else if k <> Stdlib.min_int && Stdlib.abs k < base * base then begin
      let sg = if k < 0 then -b.sg else b.sg in
      make_big sg (mul_small_mag b.mag (Stdlib.abs k))
    end
    else begin
      (* |k| too large for the single-limb-ish path (including k = min_int,
         whose Stdlib.abs is still negative): go through the general kernel. *)
      let sg = if k < 0 then -b.sg else b.sg in
      make_big sg (mul_mag b.mag (mag_of_int k))
    end

let add_int t k = add t (Small k)

let divmod a b =
  match a, b with
  | _, Small 0 -> raise Division_by_zero
  | Small 0, _ -> (Small 0, Small 0)
  | Small x, Small y ->
    (* min_int / -1 traps in hardware; its quotient is 2^62, a Big. *)
    if x = Stdlib.min_int && y = -1 then (neg a, Small 0)
    else (Small (x / y), Small (x mod y))
  | Small x, Big _ when x <> Stdlib.min_int -> (Small 0, a) (* |a| <= max_int < |b| *)
  | Small _, Big _ ->
    (* [a] is [min_int], whose magnitude ties only with the Big [2^62]. *)
    if equal b (neg a) then (minus_one, Small 0) else (Small 0, a)
  | Big x, _ ->
    let sb, mb = sg_mag b in
    let qm, rm = divmod_mag x.mag mb in
    (make_big (x.sg * sb) qm, make_big x.sg rm)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent"
  else if e = 0 then one
  else begin
    let h = pow b (e / 2) in
    let h2 = mul h h in
    if e land 1 = 1 then mul h2 b else h2
  end

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let rec gcd a b =
  match a, b with
  | Small x, Small y when x <> Stdlib.min_int && y <> Stdlib.min_int ->
    Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    let a = abs a and b = abs b in
    if is_zero b then a else gcd b (rem a b)

let two_pow_minus_one l =
  if l < 0 then invalid_arg "Bigint.two_pow_minus_one";
  if l = 0 then zero
  else if l < 62 then Small ((1 lsl l) - 1)
  else if l = 62 then Small Stdlib.max_int
  else begin
    let limbs = (l + base_bits - 1) / base_bits in
    let top_bits = l - ((limbs - 1) * base_bits) in
    let mag =
      Array.init limbs (fun i ->
          if i < limbs - 1 then mask else (1 lsl top_bits) - 1)
    in
    make_big 1 mag
  end

let to_string t =
  match t with
  | Small n -> string_of_int n
  | Big b ->
    let chunks = ref [] in
    let m = ref b.mag in
    while effective_length !m > 0 do
      let q, r = divmod_small_mag !m 1_000_000_000 in
      chunks := r :: !chunks;
      let len = effective_length q in
      m := (if len = Array.length q then q else Array.sub q 0 len)
    done;
    let buf = Buffer.create 32 in
    if b.sg < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_in, start = if s.[0] = '-' then (true, 1) else (false, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
  done;
  if neg_in then neg !acc else !acc

let to_float t =
  match t with
  | Small n -> float_of_int n
  | Big b ->
    (* A float mantissa holds 53 bits; the top four limbs carry at least 46
       and at most 60 significant bits, so accumulating them and scaling by
       ldexp is exact up to rounding and never overflows prematurely. *)
    let len = Array.length b.mag in
    let f = ref 0.0 in
    for i = len - 1 downto len - 4 do
      f := (!f *. 32768.0) +. float_of_int b.mag.(i)
    done;
    let f = Float.ldexp !f ((len - 4) * base_bits) in
    if b.sg < 0 then -.f else f

let shift_right t s =
  if s < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if s = 0 || is_zero t then t
  else begin
    match t with
    | Small n ->
      if n >= 0 then Small (if s > 62 then 0 else n lsr s)
      else if n = Stdlib.min_int then
        (* |min_int| = 2^62 *)
        (if s > 62 then Small 0 else Small (-(1 lsl (62 - s))))
      else Small (if s > 62 then 0 else -((-n) lsr s))
    | Big b ->
      let len = Array.length b.mag in
      let d = s / base_bits and r = s mod base_bits in
      if d >= len then Small 0
      else begin
        let nl = len - d in
        let out = Array.make nl 0 in
        for i = 0 to nl - 1 do
          let lo = b.mag.(i + d) lsr r in
          let hi =
            if i + d + 1 < len then (b.mag.(i + d + 1) lsl (base_bits - r)) land mask
            else 0
          in
          out.(i) <- lo lor hi
        done;
        make_big b.sg out
      end
  end

let to_int_opt t =
  match t with
  | Small n -> Some n
  | Big _ -> None

let to_int t =
  match t with
  | Small n -> n
  | Big _ -> failwith "Bigint.to_int: value out of native int range"

let bit_length t =
  match t with
  | Small 0 -> 0
  | Small n ->
    (* Count bits of |n| on the negative side so min_int is safe. *)
    let rec bits m acc = if m = 0 then acc else bits (m / 2) (acc + 1) in
    bits (if n < 0 then n else -n) 0
  | Big b ->
    let l = Array.length b.mag in
    let top = b.mag.(l - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((l - 1) * base_bits) + bits top 0

let hash t = Hashtbl.hash t
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) a b = lt b a
  let ( >= ) a b = leq b a
  let ( ~- ) = neg
end

module Internal = struct
  let is_small t =
    match t with
    | Small _ -> true
    | Big _ -> false

  let karatsuba_threshold = kara_threshold

  let mul_schoolbook a b =
    let sa, ma = sg_mag a and sb, mb = sg_mag b in
    if sa = 0 || sb = 0 then Small 0 else make_big (sa * sb) (mul_mag_school ma mb)
end

(* Normalized rationals: [dn] is positive and [gcd nm dn = 1], so structural
   equality coincides with numerical equality.

   The operations avoid the textbook cross-multiply-then-full-gcd pattern
   where normalization lets them: [add] uses the gcd-of-denominators trick
   (when [gcd d1 d2 = 1] the cross-product sum is already reduced), [mul]
   cancels with the two cross gcds before multiplying, and both have
   denominator-one fast paths.  On the counting workloads most values are
   integers or share denominators, so these paths dominate. *)

type t = { nm : Bigint.t; dn : Bigint.t }

let make_norm nm dn =
  if Bigint.is_zero dn then raise Division_by_zero;
  if Bigint.is_zero nm then { nm = Bigint.zero; dn = Bigint.one }
  else begin
    let nm, dn = if Bigint.sign dn < 0 then (Bigint.neg nm, Bigint.neg dn) else (nm, dn) in
    let g = Bigint.gcd nm dn in
    if Bigint.equal g Bigint.one then { nm; dn }
    else { nm = Bigint.div nm g; dn = Bigint.div dn g }
  end

let make = make_norm
let of_bigint n = { nm = n; dn = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints num den = make_norm (Bigint.of_int num) (Bigint.of_int den)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num t = t.nm
let den t = t.dn
let sign t = Bigint.sign t.nm
let is_zero t = Bigint.is_zero t.nm
let is_integer t = Bigint.equal t.dn Bigint.one

let compare a b =
  (* Signs first: they decide without any multiplication. *)
  let sa = Bigint.sign a.nm and sb = Bigint.sign b.nm in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else if Bigint.equal a.dn b.dn then Bigint.compare a.nm b.nm
  else Bigint.compare (Bigint.mul a.nm b.dn) (Bigint.mul b.nm a.dn)

let equal a b = Bigint.equal a.nm b.nm && Bigint.equal a.dn b.dn

let neg t = { t with nm = Bigint.neg t.nm }

let add a b =
  if Bigint.is_zero a.nm then b
  else if Bigint.is_zero b.nm then a
  else if Bigint.equal a.dn Bigint.one && Bigint.equal b.dn Bigint.one then
    { nm = Bigint.add a.nm b.nm; dn = Bigint.one }
  else begin
    (* Let g = gcd(d1, d2).  Both inputs are reduced, so when g = 1 the
       cross-product sum over d1*d2 is already in lowest terms; otherwise
       only gcd(t, g) can cancel, where t = n1*(d2/g) + n2*(d1/g). *)
    let g = Bigint.gcd a.dn b.dn in
    if Bigint.equal g Bigint.one then
      { nm = Bigint.add (Bigint.mul a.nm b.dn) (Bigint.mul b.nm a.dn);
        dn = Bigint.mul a.dn b.dn }
    else begin
      let da = Bigint.div a.dn g and db = Bigint.div b.dn g in
      let t = Bigint.add (Bigint.mul a.nm db) (Bigint.mul b.nm da) in
      if Bigint.is_zero t then { nm = Bigint.zero; dn = Bigint.one }
      else begin
        let g2 = Bigint.gcd t g in
        if Bigint.equal g2 Bigint.one then { nm = t; dn = Bigint.mul a.dn db }
        else
          { nm = Bigint.div t g2;
            dn = Bigint.mul da (Bigint.mul db (Bigint.div g g2)) }
      end
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if Bigint.is_zero a.nm || Bigint.is_zero b.nm then zero
  else begin
    (* Cancel across the diagonal before multiplying: the factors are
       reduced, so gcd(n1*n2, d1*d2) = gcd(n1,d2) * gcd(n2,d1). *)
    let g1 = Bigint.gcd a.nm b.dn and g2 = Bigint.gcd b.nm a.dn in
    let n1 = if Bigint.equal g1 Bigint.one then a.nm else Bigint.div a.nm g1 in
    let d2 = if Bigint.equal g1 Bigint.one then b.dn else Bigint.div b.dn g1 in
    let n2 = if Bigint.equal g2 Bigint.one then b.nm else Bigint.div b.nm g2 in
    let d1 = if Bigint.equal g2 Bigint.one then a.dn else Bigint.div a.dn g2 in
    { nm = Bigint.mul n1 n2; dn = Bigint.mul d1 d2 }
  end

let inv t =
  if is_zero t then raise Division_by_zero;
  if Bigint.sign t.nm < 0 then { nm = Bigint.neg t.dn; dn = Bigint.neg t.nm }
  else { nm = t.dn; dn = t.nm }

let div a b = mul a (inv b)

let mul_bigint t n =
  if Bigint.is_zero n || Bigint.is_zero t.nm then zero
  else if Bigint.equal t.dn Bigint.one then { nm = Bigint.mul t.nm n; dn = Bigint.one }
  else begin
    let g = Bigint.gcd n t.dn in
    if Bigint.equal g Bigint.one then { nm = Bigint.mul t.nm n; dn = t.dn }
    else { nm = Bigint.mul t.nm (Bigint.div n g); dn = Bigint.div t.dn g }
  end

let to_bigint t =
  if is_integer t then t.nm
  else failwith "Rat.to_bigint: not an integer"

let to_float t =
  let bn = Bigint.bit_length t.nm and bd = Bigint.bit_length t.dn in
  if bn < 1000 && bd < 1000 then Bigint.to_float t.nm /. Bigint.to_float t.dn
  else begin
    (* Both sides can exceed float range (inf /. inf = nan) even when the
       quotient is finite — e.g. reduced n!-denominator Shapley values for
       n >~ 171.  Shift each side down to ~60 significant bits (more than a
       float mantissa) and restore the exponent difference with ldexp, which
       saturates to inf/0 exactly when the true quotient does.  Result is
       within a few ulps of correctly rounded — fine for reporting. *)
    let s1 = Stdlib.max 0 (bn - 60) and s2 = Stdlib.max 0 (bd - 60) in
    Float.ldexp
      (Bigint.to_float (Bigint.shift_right t.nm s1)
       /. Bigint.to_float (Bigint.shift_right t.dn s2))
      (s1 - s2)
  end

let to_string t =
  if is_integer t then Bigint.to_string t.nm
  else Bigint.to_string t.nm ^ "/" ^ Bigint.to_string t.dn

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
    make_norm
      (Bigint.of_string (String.sub s 0 i))
      (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let pp ppf t = Format.pp_print_string ppf (to_string t)
let hash t = Hashtbl.hash (Bigint.hash t.nm, Bigint.hash t.dn)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( ~- ) = neg
end

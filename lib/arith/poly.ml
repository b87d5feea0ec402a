(* Coefficient vectors are kept canonical (no trailing zero), so [degree] is
   the array length minus one and [equal] is pointwise. *)

type t = Rat.t array

let strip a =
  let n = ref (Array.length a) in
  while !n > 0 && Rat.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero = [||]
let one = [| Rat.one |]
let of_coeffs l = strip (Array.of_list l)
let coeff p k = if k < 0 || k >= Array.length p then Rat.zero else p.(k)
let degree p = Array.length p - 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  strip (Array.init (Stdlib.max la lb) (fun i -> Rat.add (coeff a i) (coeff b i)))

let scale c p =
  if Rat.is_zero c then zero else Array.map (Rat.mul c) p

let sub a b = add a (scale Rat.minus_one b)

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb - 1) Rat.zero in
    for i = 0 to la - 1 do
      for j = 0 to lb - 1 do
        out.(i + j) <- Rat.add out.(i + j) (Rat.mul a.(i) b.(j))
      done
    done;
    strip out
  end

let x_minus c = [| Rat.neg c; Rat.one |]

let eval p v =
  let acc = ref Rat.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Rat.add (Rat.mul !acc v) p.(i)
  done;
  !acc

(* Log-linear histogram: one bucket array indexed by (binade, sub-bucket).

   For v > 0, [frexp v = (m, e)] with m in [0.5, 1), so v lies in
   [2^(e-1), 2^e).  Each binade is split into [sub] equal linear
   sub-buckets, so the bucket width is 2^(e-1)/sub and the midpoint
   approximation has relative error <= 1/(2*sub).  Exponents are
   clamped to [e_min, e_max]; with e_min = -30 that covers ~1ns
   latencies, with e_max = 37 it covers ~1.4e11 (sizes, bytes).

   [observe] allocates nothing: the bucket comes from the float's bits
   (no [frexp] tuple), and sum, min and max live unboxed in a float
   array. *)

let sub_bits = 3
let sub = 1 lsl sub_bits
let e_min = -30
let e_max = 37
let binades = e_max - e_min + 1
let num_buckets = binades * sub

type t = {
  mutable h_count : int;
  mutable h_zero : int;  (* observations <= 0 (and NaN, clamped) *)
  h_stats : float array;  (* sum, min, max *)
  counts : int array;
}

let i_sum = 0
let i_min = 1
let i_max = 2

let create () =
  { h_count = 0;
    h_zero = 0;
    h_stats = [| 0.; infinity; neg_infinity |];
    counts = Array.make num_buckets 0 }

let copy t =
  { t with h_stats = Array.copy t.h_stats; counts = Array.copy t.counts }

(* For a positive double, the IEEE-754 exponent field minus 1022 is
   [frexp]'s [e], and the top [sub_bits] mantissa bits are its
   sub-bucket [(m - 0.5) * 2 * sub].  Subnormals (field 0) fall below
   [e_min]; +infinity (field 2047) lands in the top bucket. *)
let bucket_index v =
  if not (v > 0.) then -1
  else
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let e = (bits lsr 52) - 1022 in
    if e < e_min then 0
    else if e > e_max then num_buckets - 1
    else ((e - e_min) * sub) + ((bits lsr (52 - sub_bits)) land (sub - 1))

let bucket_bounds i =
  let e = e_min + (i / sub) and s = i mod sub in
  let lo = Float.ldexp (1. +. (float_of_int s /. float_of_int sub)) (e - 1) in
  let hi = Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int sub)) (e - 1) in
  (lo, hi)

let observe t v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  let st = t.h_stats in
  t.h_count <- t.h_count + 1;
  st.(i_sum) <- st.(i_sum) +. v;
  if v < st.(i_min) then st.(i_min) <- v;
  if v > st.(i_max) then st.(i_max) <- v;
  if v = 0. then t.h_zero <- t.h_zero + 1
  else
    let i = bucket_index v in
    t.counts.(i) <- t.counts.(i) + 1

let count t = t.h_count
let sum t = t.h_stats.(i_sum)
let min_value t = if t.h_count = 0 then nan else t.h_stats.(i_min)
let max_value t = if t.h_count = 0 then nan else t.h_stats.(i_max)

let merge_into ~into src =
  let a = into.h_stats and b = src.h_stats in
  into.h_count <- into.h_count + src.h_count;
  a.(i_sum) <- a.(i_sum) +. b.(i_sum);
  if src.h_count > 0 then begin
    if b.(i_min) < a.(i_min) then a.(i_min) <- b.(i_min);
    if b.(i_max) > a.(i_max) then a.(i_max) <- b.(i_max)
  end;
  into.h_zero <- into.h_zero + src.h_zero;
  for i = 0 to num_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done

let merge a b =
  let t = copy a in
  merge_into ~into:t b;
  t

let clamp t v =
  let v = if v < t.h_stats.(i_min) then t.h_stats.(i_min) else v in
  if v > t.h_stats.(i_max) then t.h_stats.(i_max) else v

let percentile t q =
  if t.h_count = 0 then nan
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int t.h_count)) in
    let rank = if rank < 1 then 1 else if rank > t.h_count then t.h_count else rank in
    if rank <= t.h_zero then clamp t 0.
    else begin
      let acc = ref t.h_zero and result = ref t.h_stats.(i_max) in
      (try
         for i = 0 to num_buckets - 1 do
           acc := !acc + t.counts.(i);
           if !acc >= rank then begin
             let lo, hi = bucket_bounds i in
             result := clamp t ((lo +. hi) /. 2.);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

let buckets t =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      let _, hi = bucket_bounds i in
      acc := (hi, t.counts.(i)) :: !acc
  done;
  if t.h_zero > 0 then (0., t.h_zero) :: !acc else !acc

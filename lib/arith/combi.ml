(* Factorials are cached in a growable table; binomials are derived from the
   factorial cache rather than a Pascal triangle, which keeps memory linear. *)

let fact_cache = ref [| Bigint.one |]

(* The cache is grown copy-on-write under [lock] (domain-safe for the
   [--jobs] fan-out); the fast path reads the current array without the
   lock, which is safe because a published cache array is never mutated
   again — growth installs a fresh, fully initialised array. *)
let lock = Mutex.create ()

let factorial n =
  if n < 0 then invalid_arg "Combi.factorial: negative";
  let cache = !fact_cache in
  if n < Array.length cache then cache.(n)
  else begin
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
         let cache = !fact_cache in
         if n < Array.length cache then cache.(n)
         else begin
           let old = Array.length cache in
           let cache' = Array.make (n + 1) Bigint.one in
           Array.blit cache 0 cache' 0 old;
           for i = old to n do
             cache'.(i) <- Bigint.mul cache'.(i - 1) (Bigint.of_int i)
           done;
           fact_cache := cache';
           cache'.(n)
         end)
  end

let binomial n k =
  if n < 0 then invalid_arg "Combi.binomial: negative n";
  if k < 0 || k > n then Bigint.zero
  else
    Bigint.div (factorial n) (Bigint.mul (factorial k) (factorial (n - k)))

(* Eq. (2) needs a whole row of coefficients per variable, so rows are
   cached per [n], copy-on-write under a mutex like the factorials (an
   empty row is the "not yet computed" sentinel; real rows have length
   n >= 1). *)
let row_cache make =
  let rows : 'a array array ref = ref [||] in
  let lock = Mutex.create () in
  fun n ->
    let cached () =
      let rs = !rows in
      if n < Array.length rs && Array.length rs.(n) > 0 then Some rs.(n)
      else None
    in
    match cached () with
    | Some row -> row
    | None ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match cached () with
          | Some row -> row
          | None ->
            let row = make n in
            let rs = !rows in
            let have = Array.length rs in
            let rows' =
              Array.init
                (Stdlib.max have (n + 1))
                (fun i -> if i < have then rs.(i) else [||])
            in
            rows'.(n) <- row;
            rows := rows';
            row)

(* k! (n-k-1)!, the numerators of the row over the common denominator n!. *)
let weight_row =
  row_cache (fun n ->
      Array.init n (fun k -> Bigint.mul (factorial k) (factorial (n - k - 1))))

let shapley_row =
  row_cache (fun n ->
      Array.map (fun w -> Rat.make w (factorial n)) (weight_row n))

let shapley_coeff ~n k =
  if k < 0 || k > n - 1 then invalid_arg "Combi.shapley_coeff: k out of range";
  (shapley_row n).(k)

let shapley_of_diffs ~n diff =
  if n <= 0 then Rat.zero
  else begin
    let w = weight_row n in
    let acc = ref Bigint.zero in
    for k = 0 to n - 1 do
      let d = diff k in
      if not (Bigint.is_zero d) then acc := Bigint.add !acc (Bigint.mul w.(k) d)
    done;
    Rat.make !acc (factorial n)
  end

let falling n k =
  let rec go acc i =
    if i >= k then acc
    else go (Bigint.mul acc (Bigint.of_int (n - i))) (i + 1)
  in
  if k <= 0 then Bigint.one else go Bigint.one 0

let pow2 n =
  if n < 0 then invalid_arg "Combi.pow2: negative";
  Bigint.pow Bigint.two n

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

(* Eq. (2) over the denominator [L = lcm(1..n)] instead of [n!]:
   [c_k = k! (n-1-k)! / n! = 1 / (n·C(n-1,k))], and
   [lcm_k C(n-1,k) = lcm(1..n) / n], so every [n·C(n-1,k)] divides [L]
   and [c_k = w_k / L] with the integer [w_k = L / (n·C(n-1,k))].  [L]
   has about [1.44 n] bits where [n!] has [n log2 n]: 115 against 395
   at n = 80.  From [w_0 = L/n], each [w_(k+1) = w_k·(k+1) / (n-1-k)]
   divides exactly, since [C(n-1,k+1) / C(n-1,k) = (n-1-k) / (k+1)]. *)
type row = { den : Bigint.t; weights : Bigint.t array }

let make_row n =
  let den = ref Bigint.one in
  for i = 2 to n do
    let i = Bigint.of_int i in
    den := Bigint.mul !den (Bigint.div i (Bigint.gcd !den i))
  done;
  let weights = Array.make n (Bigint.div !den (Bigint.of_int n)) in
  for k = 0 to n - 2 do
    weights.(k + 1) <-
      Bigint.div
        (Bigint.mul_int weights.(k) (k + 1))
        (Bigint.of_int (n - 1 - k))
  done;
  { den = !den; weights }

(* Rows are cached per [n], copy-on-write under a mutex like the
   factorials ([None] is "not yet computed"). *)
let rows : row option array ref = ref [||]
let row_lock = Mutex.create ()

let row n =
  let cached () =
    let rs = !rows in
    if n < Array.length rs then rs.(n) else None
  in
  match cached () with
  | Some r -> r
  | None ->
    Mutex.lock row_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock row_lock)
      (fun () ->
        match cached () with
        | Some r -> r
        | None ->
          let r = make_row n in
          let rs = !rows in
          let rs' = Array.make (Stdlib.max (Array.length rs) (n + 1)) None in
          Array.blit rs 0 rs' 0 (Array.length rs);
          rs'.(n) <- Some r;
          rows := rs';
          r)

let shapley_coeff ~n k =
  if k < 0 || k > n - 1 then invalid_arg "Combi.shapley_coeff: k out of range";
  let r = row n in
  Rat.make r.weights.(k) r.den

let shapley_of_diffs ~n diff =
  if n <= 0 then Rat.zero
  else begin
    let r = row n in
    let acc = ref Bigint.zero in
    for k = 0 to n - 1 do
      let d = diff k in
      if not (Bigint.is_zero d) then
        acc := Bigint.add !acc (Bigint.mul r.weights.(k) d)
    done;
    Rat.make !acc r.den
  end

let pow2 n =
  if n < 0 then invalid_arg "Combi.pow2: negative";
  Bigint.pow Bigint.two n

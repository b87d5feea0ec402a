(* [per_n build] memoizes [build n] per [n] in an array that is grown
   copy-on-write under [lock]: a reader takes no lock, which is safe for
   the [--jobs] fan-out because a published array is never mutated again
   (growth and fills install a fresh one).  [build] runs under [lock],
   which is not re-entrant, so it must not read its own table. *)
let per_n build =
  let table = ref [||] and lock = Mutex.create () in
  let cached n =
    let t = !table in
    if n < Array.length t then t.(n) else None
  in
  fun n ->
    match cached n with
    | Some v -> v
    | None ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match cached n with
          | Some v -> v
          | None ->
            let v = build n in
            let t = !table in
            let t' = Array.make (Stdlib.max (Array.length t) (n + 1)) None in
            Array.blit t 0 t' 0 (Array.length t);
            t'.(n) <- Some v;
            table := t';
            v)

let factorials =
  per_n (fun n ->
      let f = ref Bigint.one in
      for i = 2 to n do
        f := Bigint.mul_int !f i
      done;
      !f)

let factorial n =
  if n < 0 then invalid_arg "Combi.factorial: negative";
  factorials n

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

let row = per_n make_row

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

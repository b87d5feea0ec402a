(* The invariant throughout: [counts] has length [n + 1] and entry [k] is
   the number of models of size [k] over an [n]-variable universe. *)

type t = { n : int; counts : Bigint.t array }

let make ~n counts =
  if n < 0 then invalid_arg "Kvec.make: negative universe";
  if Array.length counts <> n + 1 then invalid_arg "Kvec.make: length mismatch";
  { n; counts = Array.copy counts }

let universe_size v = v.n
let get v k = if k < 0 || k > v.n then Bigint.zero else v.counts.(k)
let to_array v = Array.copy v.counts

let total v = Array.fold_left Bigint.add Bigint.zero v.counts

let equal a b =
  a.n = b.n
  && begin
    let ok = ref true in
    Array.iteri
      (fun i c -> if not (Bigint.equal c b.counts.(i)) then ok := false)
      a.counts;
    !ok
  end

let hash v =
  Array.fold_left (fun h c -> (h * 31) + Bigint.hash c) v.n v.counts

let zero ~n = { n; counts = Array.make (n + 1) Bigint.zero }

(* Binomial rows for [all ~n], built once per [n] by Pascal's rule and
   shared thereafter: rows are immutable and every operation below
   allocates fresh output arrays, never mutating [counts] in place.
   Copy-on-write under a mutex for domain safety (same pattern as the
   factorial cache in [Combi]). *)
let binom_rows : Bigint.t array array ref = ref [||]
let binom_lock = Mutex.create ()

let binom_row n =
  let rows = !binom_rows in
  if n < Array.length rows then rows.(n)
  else begin
    Mutex.lock binom_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock binom_lock)
      (fun () ->
        let rows = !binom_rows in
        let have = Array.length rows in
        if n < have then rows.(n)
        else begin
          let rows' =
            Array.init (n + 1) (fun k -> if k < have then rows.(k) else [||])
          in
          for k = Stdlib.max have 0 to n do
            rows'.(k) <-
              (if k = 0 then [| Bigint.one |]
               else begin
                 let prev = rows'.(k - 1) in
                 Array.init (k + 1) (fun i ->
                     if i = 0 || i = k then Bigint.one
                     else Bigint.add prev.(i - 1) prev.(i))
               end)
          done;
          binom_rows := rows';
          rows'.(n)
        end)
  end

let all ~n = if n < 0 then { n; counts = [||] } else { n; counts = binom_row n }
let singleton_true = { n = 1; counts = [| Bigint.zero; Bigint.one |] }
let singleton_false = { n = 1; counts = [| Bigint.one; Bigint.zero |] }
let const_true ~n = all ~n
let const_false ~n = zero ~n

(* Multiply by a constant polynomial (a 0-variable vector). *)
let scale c v =
  if Bigint.equal c Bigint.one then v
  else { v with counts = Array.map (fun x -> Bigint.mul c x) v.counts }

let conv a b =
  if a.n = 0 then scale a.counts.(0) b
  else if b.n = 0 then scale b.counts.(0) a
  else begin
    let n = a.n + b.n in
    let out = Array.make (n + 1) Bigint.zero in
    for i = 0 to a.n do
      let ai = a.counts.(i) in
      if not (Bigint.is_zero ai) then
        for j = 0 to b.n do
          let bj = b.counts.(j) in
          if not (Bigint.is_zero bj) then
            out.(i + j) <- Bigint.add out.(i + j) (Bigint.mul ai bj)
        done
    done;
    { n; counts = out }
  end

(* Convolve a list of vectors with two reusable scratch buffers sized for
   the final universe, instead of one fresh array per fold step. *)
let conv_list parts =
  match parts with
  | [] -> const_true ~n:0
  | [ p ] -> p
  | first :: rest ->
    let total_n = List.fold_left (fun acc p -> acc + p.n) 0 parts in
    let cur = ref (Array.make (total_n + 1) Bigint.zero) in
    let buf = ref (Array.make (total_n + 1) Bigint.zero) in
    Array.blit first.counts 0 !cur 0 (first.n + 1);
    let cur_n = ref first.n in
    List.iter
      (fun p ->
         let nn = !cur_n + p.n in
         let c = !cur and b = !buf in
         Array.fill b 0 (nn + 1) Bigint.zero;
         for i = 0 to !cur_n do
           let ci = c.(i) in
           if not (Bigint.is_zero ci) then
             for j = 0 to p.n do
               let pj = p.counts.(j) in
               if not (Bigint.is_zero pj) then
                 b.(i + j) <- Bigint.add b.(i + j) (Bigint.mul ci pj)
             done
         done;
         cur := b;
         buf := c;
         cur_n := nn)
      rest;
    { n = total_n; counts = !cur }

let pointwise op a b =
  if a.n <> b.n then invalid_arg "Kvec: universe-size mismatch";
  { n = a.n; counts = Array.mapi (fun i c -> op c b.counts.(i)) a.counts }

let add a b = pointwise Bigint.add a b
let sub a b = pointwise Bigint.sub a b

let extend v ~extra =
  if extra < 0 then invalid_arg "Kvec.extend: negative"
  else if extra = 0 then v
  else conv v (all ~n:extra)

let neg v = { v with counts = Array.map Bigint.neg v.counts }
let complement v = sub (all ~n:v.n) v

let disjoint_or a b =
  (* Non-models multiply across disjoint universes. *)
  let non_a = complement a and non_b = complement b in
  sub (all ~n:(a.n + b.n)) (conv non_a non_b)

let weighted_sum v w =
  (* Horner from the top coefficient. *)
  let acc = ref Bigint.zero in
  for k = v.n downto 0 do
    acc := Bigint.add (Bigint.mul !acc w) v.counts.(k)
  done;
  !acc

let pp ppf v =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Bigint.pp)
    (Array.to_list v.counts)

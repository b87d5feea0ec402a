module type SEMIRING = sig
  type t

  val zero : t
  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Polynomial = struct
  (* Monomial: sorted (variable, exponent>0) assoc list. *)
  module Mono = struct
    type t = (int * int) list

    let compare = Stdlib.compare
    let one : t = []

    let times (a : t) (b : t) : t =
      let rec merge a b =
        match (a, b) with
        | [], m | m, [] -> m
        | (v1, e1) :: r1, (v2, e2) :: r2 ->
          if v1 < v2 then (v1, e1) :: merge r1 b
          else if v2 < v1 then (v2, e2) :: merge a r2
          else (v1, e1 + e2) :: merge r1 r2
      in
      merge a b
  end

  module Mmap = Map.Make (Mono)

  (* coefficient map, no zero coefficients *)
  type t = int Mmap.t

  let zero = Mmap.empty
  let one = Mmap.singleton Mono.one 1
  let var v = Mmap.singleton [ (v, 1) ] 1

  let plus a b =
    Mmap.union (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2)) a b

  let times a b =
    Mmap.fold
      (fun ma ca acc ->
         Mmap.fold
           (fun mb cb acc ->
              let m = Mono.times ma mb in
              let c = ca * cb in
              Mmap.update m
                (function
                  | None -> Some c
                  | Some c' -> if c + c' = 0 then None else Some (c + c'))
                acc)
           b acc)
      a zero

  let equal = Mmap.equal Int.equal

  let monomials p = Mmap.bindings p

  let pp ppf p =
    if Mmap.is_empty p then Format.pp_print_string ppf "0"
    else
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
        (fun ppf (m, c) ->
           if c <> 1 || m = [] then Format.fprintf ppf "%d" c;
           List.iter
             (fun (v, e) ->
                if e = 1 then Format.fprintf ppf "x%d" v
                else Format.fprintf ppf "x%d^%d" v e)
             m)
        ppf (monomials p)

  let eval (type a) (module S : SEMIRING with type t = a) h p : a =
    Mmap.fold
      (fun m c acc ->
         let rec repeat acc x k = if k = 0 then acc else repeat (S.times acc x) x (k - 1) in
         let term =
           List.fold_left (fun acc (v, e) -> repeat acc (h v) e) S.one m
         in
         let rec add acc k = if k = 0 then acc else add (S.plus acc term) (k - 1) in
         add acc c)
      p S.zero
end

module Boolean_semiring = struct
  type t = Formula.t

  let zero = Formula.fls
  let one = Formula.tru
  let plus = Formula.disj2
  let times = Formula.conj2
  let equal = Formula.equal
  let pp = Formula.pp
end

module Counting = struct
  type t = Bigint.t

  let zero = Bigint.zero
  let one = Bigint.one
  let plus = Bigint.add
  let times = Bigint.mul
  let equal = Bigint.equal
  let pp = Bigint.pp
end

module Probability = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let plus = Rat.add
  let times = Rat.mul
  let equal = Rat.equal
  let pp = Rat.pp
end

module Tropical = struct
  type t = Finite of int | Infinity

  let zero = Infinity
  let one = Finite 0
  let of_int n = Finite n
  let infinity = Infinity
  let to_int_opt = function Finite n -> Some n | Infinity -> None

  let plus a b =
    match (a, b) with
    | Infinity, x | x, Infinity -> x
    | Finite m, Finite n -> Finite (Stdlib.min m n)

  let times a b =
    match (a, b) with
    | Infinity, _ | _, Infinity -> Infinity
    | Finite m, Finite n -> Finite (m + n)

  let equal = Stdlib.( = )

  let pp ppf = function
    | Infinity -> Format.pp_print_string ppf "inf"
    | Finite n -> Format.pp_print_int ppf n
end

let eval (type a) (module S : SEMIRING with type t = a) db q ~annotate : a =
  (* Sum over satisfying assignments of the product of tuple annotations,
     in atom order; a tuple used by several atoms of one assignment
     contributes one factor per use (bag semantics of [16]). *)
  Cq.check_against q db;
  if not (Cq.is_positive q) then
    invalid_arg "Provenance.eval: query has negated atoms";
  Lineage.fold db q.Cq.atoms ~init:S.zero ~leaf:(fun sum _ rows ->
      S.plus sum
        (List.fold_left
           (fun acc (s : Database.stored) ->
              match s.lvar with
              | Some v -> S.times acc (annotate v)
              | None -> acc)
           S.one rows))

let provenance_polynomial db q =
  eval (module Polynomial) db q ~annotate:Polynomial.var

let derivation_count db q =
  eval (module Counting) db q ~annotate:(fun _ -> Bigint.one)

(** Shared test utilities: Alcotest testables, QCheck generators, and
    small builders for formulas, circuits and databases. *)

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal
let kvec = Alcotest.testable Kvec.pp Kvec.equal
let formula = Alcotest.testable Formula.pp Formula.equal
let vset = Alcotest.testable Vset.pp Vset.equal

let shap_list =
  Alcotest.testable
    (fun ppf l ->
       Format.fprintf ppf "[%a]"
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
            (fun ppf (i, v) -> Format.fprintf ppf "x%d=%a" i Rat.pp v))
         l)
    (fun a b ->
       List.length a = List.length b
       && List.for_all2
            (fun (i, x) (j, y) -> i = j && Rat.equal x y)
            (List.sort compare a) (List.sort compare b))

let check_shap = Alcotest.check shap_list

(* Unsimplified formula nodes ({!Formula.make}), so a shape reaches the
   code under test as written. *)
module Raw = struct
  let tru = Formula.make True
  let fls = Formula.make False
  let var i = Formula.make (Var i)
  let not_ f = Formula.make (Not f)
  let and_ fs = Formula.make (And fs)
  let or_ fs = Formula.make (Or fs)
end

(* ------------------------------------------------------------------ *)
(* QCheck generators *)

(* Random formulas over variables 1..nvars; [depth] bounds the AST. *)
let gen_formula ~nvars ~depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (8, map Formula.var (int_range 1 nvars));
        (1, return Formula.tru);
        (1, return Formula.fls) ]
  in
  let rec go d =
    if d <= 0 then leaf
    else
      frequency
        [ (2, leaf);
          (2, map Formula.not_ (go (d - 1)));
          (3,
           map2 (fun a b -> Formula.conj2 a b) (go (d - 1)) (go (d - 1)));
          (3, map2 (fun a b -> Formula.disj2 a b) (go (d - 1)) (go (d - 1)))
        ]
  in
  go depth

let arb_formula ~nvars ~depth =
  QCheck.make ~print:Formula.to_string (gen_formula ~nvars ~depth)

(* Positive DNF over variables 1..nvars with at most [clauses] clauses. *)
let gen_pdnf ~nvars ~clauses =
  let open QCheck.Gen in
  let clause =
    map
      (fun vs -> Vset.of_list vs)
      (list_size (int_range 1 3) (int_range 1 nvars))
  in
  list_size (int_range 1 clauses) clause

let arb_pdnf ~nvars ~clauses =
  QCheck.make
    ~print:(fun d -> Formula.to_string (Nf.pdnf_to_formula d))
    (gen_pdnf ~nvars ~clauses)

(* Signed 62-bit integers as bigints together with their int value. *)
let gen_small_int =
  QCheck.Gen.(frequency
                [ (5, int_range (-1000) 1000);
                  (3, int_range (-1_000_000_000) 1_000_000_000);
                  (1, oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0 ])
                ])

let arb_small_int = QCheck.make ~print:string_of_int gen_small_int

(* Large bigints via decimal strings. *)
let gen_big =
  let open QCheck.Gen in
  let* digits = int_range 1 60 in
  let* neg = bool in
  let* first = int_range 1 9 in
  let* rest = list_size (return (digits - 1)) (int_range 0 9) in
  let s =
    (if neg then "-" else "")
    ^ string_of_int first
    ^ String.concat "" (List.map string_of_int rest)
  in
  return (Bigint.of_string s)

let arb_big = QCheck.make ~print:Bigint.to_string gen_big

let gen_rat =
  let open QCheck.Gen in
  let* num = int_range (-10000) 10000 in
  let* den = int_range 1 10000 in
  return (Rat.of_ints num den)

let arb_rat = QCheck.make ~print:Rat.to_string gen_rat

(* Wrap a QCheck test as an Alcotest case. *)
let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Paper objects *)

(* Example 2's function F = X1 ∧ (X2 ∨ ¬X3). *)
let example2_formula = Parser.formula_of_string_exn "x1 & (x2 | !x3)"
let example2_vars = [ 1; 2; 3 ]

(* The Example 13 / 16 database for Q = R1(x), R2(x). *)
let example13_db () =
  let db = Database.create () in
  Database.declare db "R1" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "R2" ~kind:Database.Endogenous ~arity:1;
  ignore (Database.insert db "R1" [| Value.int 1 |]);
  ignore (Database.insert db "R1" [| Value.int 2 |]);
  ignore (Database.insert db "R2" [| Value.int 1 |]);
  ignore (Database.insert db "R2" [| Value.int 2 |]);
  db

(* A small random database for Q0 = R(x), S(x,y), T(y). *)
let random_q0_db ~a ~b ~density ~seed =
  let inst = Bipartite.random ~a ~b ~density ~seed in
  Hardness.encode inst

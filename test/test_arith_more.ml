(** Tests for combinatorics, polynomials and the exact linear solvers. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let r = Rat.of_ints

let combi_tests =
  [ t "factorials" (fun () ->
        Alcotest.check bigint "0!" Bigint.one (Combi.factorial 0);
        Alcotest.check bigint "5!" (bi 120) (Combi.factorial 5);
        Alcotest.check bigint "20!"
          (Bigint.of_string "2432902008176640000")
          (Combi.factorial 20));
    t "factorial negative raises" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Combi.factorial: negative")
          (fun () -> ignore (Combi.factorial (-1))));
    t "binomials" (fun () ->
        Alcotest.check bigint "C(5,2)" (bi 10) (Combi.binomial 5 2);
        Alcotest.check bigint "C(n,0)" Bigint.one (Combi.binomial 7 0);
        Alcotest.check bigint "C(n,n)" Bigint.one (Combi.binomial 7 7);
        Alcotest.check bigint "out of range" Bigint.zero (Combi.binomial 5 6);
        Alcotest.check bigint "k<0" Bigint.zero (Combi.binomial 5 (-1)));
    t "shapley coefficients n=3" (fun () ->
        (* Example 4: c_0 = 2/6, c_1 = 1/6, c_2 = 2/6 *)
        Alcotest.check rat "c0" (r 2 6) (Combi.shapley_coeff ~n:3 0);
        Alcotest.check rat "c1" (r 1 6) (Combi.shapley_coeff ~n:3 1);
        Alcotest.check rat "c2" (r 2 6) (Combi.shapley_coeff ~n:3 2));
    t "shapley coeff out of range" (fun () ->
        Alcotest.check_raises "k=n"
          (Invalid_argument "Combi.shapley_coeff: k out of range") (fun () ->
              ignore (Combi.shapley_coeff ~n:3 3)));
    qtest "pascal identity"
      QCheck.(pair (int_range 1 40) (int_range 0 40))
      (fun (n, k) ->
         QCheck.assume (k <= n);
         Bigint.equal (Combi.binomial (n + 1) k)
           (Bigint.add (Combi.binomial n k) (Combi.binomial n (k - 1))));
    qtest "shapley coefficients sum to ~ harmonic identity"
      QCheck.(int_range 1 25)
      (fun n ->
         (* Σ_k C(n-1,k) c_k = Σ 1/n ... the defining property:
            Σ_{k} c_k · C(n−1, k) · n = Σ ... — check Σ_k C(n−1,k)c_k = 1/n·n = 1?
            Actually Σ_k c_k C(n-1,k) = Σ_k 1/(n·C(n-1,k))·C(n-1,k) = n·(1/n) = 1. *)
         let sum = ref Rat.zero in
         for k = 0 to n - 1 do
           sum :=
             Rat.add !sum
               (Rat.mul_bigint (Combi.shapley_coeff ~n k) (Combi.binomial (n - 1) k))
         done;
         Rat.equal !sum Rat.one)
  ]

let poly_tests =
  [ t "degree and coeff" (fun () ->
        let p = Poly.of_coeffs [ r 1 1; r 0 1; r 3 1 ] in
        Alcotest.(check int) "deg" 2 (Poly.degree p);
        Alcotest.check rat "c0" Rat.one (Poly.coeff p 0);
        Alcotest.check rat "c1" Rat.zero (Poly.coeff p 1);
        Alcotest.check rat "c5" Rat.zero (Poly.coeff p 5));
    t "trailing zeros stripped" (fun () ->
        let p = Poly.of_coeffs [ r 1 1; Rat.zero; Rat.zero ] in
        Alcotest.(check int) "deg" 0 (Poly.degree p);
        Alcotest.(check int) "zero poly deg" (-1) (Poly.degree Poly.zero));
    t "eval horner" (fun () ->
        (* p(x) = 2 - x + x^2 at x = 3: 2 - 3 + 9 = 8 *)
        let p = Poly.of_coeffs [ r 2 1; r (-1) 1; r 1 1 ] in
        Alcotest.check rat "p(3)" (r 8 1) (Poly.eval p (r 3 1)));
    qtest "add is pointwise eval"
      (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, x) ->
         let p = Poly.of_coeffs [ a; b ] and q = Poly.of_coeffs [ b; a ] in
         Rat.equal
           (Poly.eval (Poly.add p q) x)
           (Rat.add (Poly.eval p x) (Poly.eval q x)));
    qtest "mul is pointwise eval"
      (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, x) ->
         let p = Poly.of_coeffs [ a; b ] and q = Poly.of_coeffs [ b; Rat.one; a ] in
         Rat.equal
           (Poly.eval (Poly.mul p q) x)
           (Rat.mul (Poly.eval p x) (Poly.eval q x)))
  ]

let linalg_tests =
  [ t "vandermonde interpolates" (fun () ->
        let points = [| r 1 1; r 3 1; r 7 1 |] in
        let coeffs = [| r 2 1; r (-1) 1; r 5 1 |] in
        let poly = Poly.of_coeffs (Array.to_list coeffs) in
        let values = Array.map (Poly.eval poly) points in
        let sol = Linalg.vandermonde_solve ~points ~values in
        Array.iteri
          (fun i c -> Alcotest.check rat (Printf.sprintf "c%d" i) coeffs.(i) c)
          sol);
    t "vandermonde rejects duplicates" (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Linalg.vandermonde_solve: duplicate nodes")
          (fun () ->
             ignore
               (Linalg.vandermonde_solve
                  ~points:[| r 1 1; r 1 1 |]
                  ~values:[| r 0 1; r 1 1 |])));
    t "vandermonde empty" (fun () ->
        Alcotest.(check int) "len" 0
          (Array.length (Linalg.vandermonde_solve ~points:[||] ~values:[||])));
    t "gauss solves and detects singular" (fun () ->
        let a = [| [| r 2 1; r 1 1 |]; [| r 1 1; r 3 1 |] |] in
        let b = [| r 5 1; r 10 1 |] in
        (match Linalg.gauss_solve a b with
         | None -> Alcotest.fail "unexpected singular"
         | Some x ->
           Alcotest.check rat "x0" (r 1 1) x.(0);
           Alcotest.check rat "x1" (r 3 1) x.(1));
        let sing = [| [| r 1 1; r 2 1 |]; [| r 2 1; r 4 1 |] |] in
        Alcotest.(check bool) "singular" true
          (Linalg.gauss_solve sing b = None));
    t "gauss does not mutate inputs" (fun () ->
        let a = [| [| r 2 1; r 1 1 |]; [| r 1 1; r 3 1 |] |] in
        let b = [| r 5 1; r 10 1 |] in
        ignore (Linalg.gauss_solve a b);
        Alcotest.check rat "a00" (r 2 1) a.(0).(0);
        Alcotest.check rat "b1" (r 10 1) b.(1));
    qtest "vandermonde and gauss agree" ~count:30
      QCheck.(list_of_size Gen.(int_range 1 6) (int_range (-50) 50))
      (fun raw ->
         let values = Array.of_list (List.map (fun v -> r v 1) raw) in
         let m = Array.length values in
         let points = Reductions.or_points ~count:m in
         let sol_v = Linalg.vandermonde_solve ~points ~values in
         let matrix = Linalg.vandermonde_matrix points ~cols:m in
         match Linalg.gauss_solve matrix values with
         | None -> false
         | Some sol_g ->
           Array.for_all2 Rat.equal sol_v sol_g
           && Array.for_all2 Rat.equal (Linalg.mat_vec matrix sol_v) values)
  ]

(* Eq. (2) over lcm(1..n) against its factorial form,
   [Σ_k k! (n−1−k)! · d_k / n!], computed here from the factorials. *)
let factorial_form ~n d =
  let acc = ref Bigint.zero in
  for k = 0 to n - 1 do
    acc :=
      Bigint.add !acc
        (Bigint.mul
           (Bigint.mul (Combi.factorial k) (Combi.factorial (n - 1 - k)))
           d.(k))
  done;
  Rat.make !acc (Combi.factorial n)

let lcm_tests =
  [ t "Eq. (2) over lcm(1..n) = factorial form, n = 1..200" (fun () ->
        let st = Random.State.make [| 2024; 26 |] in
        (* signed entries of up to about n + 60 bits *)
        let entry n =
          let b =
            Bigint.mul
              (Bigint.of_int (Random.State.int st 1_000_000 - 500_000))
              (Bigint.pow Bigint.two (Random.State.int st (n + 40)))
          in
          Bigint.add b (Bigint.of_int (Random.State.int st 2001 - 1000))
        in
        for n = 1 to 200 do
          let d = Array.init n (fun _ -> entry n) in
          Alcotest.check rat
            (Printf.sprintf "shapley_of_diffs n=%d" n)
            (factorial_form ~n d)
            (Combi.shapley_of_diffs ~n (Array.get d));
          List.iter
            (fun k ->
              let unit =
                Array.init n (fun j -> if j = k then Bigint.one else Bigint.zero)
              in
              Alcotest.check rat
                (Printf.sprintf "shapley_coeff n=%d k=%d" n k)
                (factorial_form ~n unit) (Combi.shapley_coeff ~n k))
            (List.sort_uniq compare [ 0; n / 3; n / 2; n - 1 ])
        done);
    t "n·C(n−1,k) divides lcm(1..n), n ≤ 300" (fun () ->
        let lcm = ref Bigint.one and row = ref [| Bigint.one |] in
        for n = 1 to 300 do
          let bn = bi n in
          lcm := Bigint.mul !lcm (Bigint.div bn (Bigint.gcd !lcm bn));
          (* [!row] is C(n−1, ·); the next is C(n, ·) by Pascal's rule *)
          Array.iteri
            (fun k c ->
              if not (Bigint.is_zero (Bigint.rem !lcm (Bigint.mul bn c))) then
                Alcotest.failf "n=%d k=%d" n k)
            !row;
          let prev = !row in
          row :=
            Array.init (n + 1) (fun k ->
                if k = 0 || k = n then Bigint.one
                else Bigint.add prev.(k - 1) prev.(k))
        done) ]

let suite = combi_tests @ poly_tests @ linalg_tests @ lcm_tests

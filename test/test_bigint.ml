(** Unit and property tests for the bignum substrate. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f
let bi = Bigint.of_int
let bs = Bigint.of_string

let unit_tests =
  [ t "zero" (fun () ->
        Alcotest.check bigint "0" Bigint.zero (bi 0);
        Alcotest.(check bool) "is_zero" true (Bigint.is_zero Bigint.zero);
        Alcotest.(check int) "sign" 0 (Bigint.sign Bigint.zero));
    t "of_int/to_int roundtrip extremes" (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) "rt" n (Bigint.to_int (bi n)))
          [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1; 32768; -32768 ]);
    t "to_int out of range" (fun () ->
        let huge = Bigint.pow (bi 2) 100 in
        Alcotest.(check (option int)) "none" None (Bigint.to_int_opt huge);
        Alcotest.(check (option int))
          "min_int fits" (Some min_int)
          (Bigint.to_int_opt (bi min_int)));
    t "string roundtrip" (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (Bigint.to_string (bs s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890";
            "-999999999999999999999999"; "1000000000000000000000000000001" ]);
    t "of_string rejects garbage" (fun () ->
        List.iter
          (fun s ->
             Alcotest.check_raises "invalid" (Invalid_argument
               (match s with
                | "" -> "Bigint.of_string: empty"
                | "-" -> "Bigint.of_string: no digits"
                | _ -> "Bigint.of_string: bad digit"))
               (fun () -> ignore (bs s)))
          [ ""; "-"; "12a"; "1 2" ]);
    t "add carries across limbs" (fun () ->
        Alcotest.check bigint "2^60"
          (Bigint.pow (bi 2) 60)
          (Bigint.add (bi (1 lsl 59)) (bi (1 lsl 59))));
    t "mul known value" (fun () ->
        Alcotest.check bigint "square"
          (bs "15241578753238836750495351562536198787501905199875019052100")
          (Bigint.mul
             (bs "123456789012345678901234567890")
             (bs "123456789012345678901234567890")));
    t "divmod truncates toward zero" (fun () ->
        let check a b q r =
          let q', r' = Bigint.divmod (bi a) (bi b) in
          Alcotest.check bigint "q" (bi q) q';
          Alcotest.check bigint "r" (bi r) r'
        in
        check 7 2 3 1;
        check (-7) 2 (-3) (-1);
        check 7 (-2) (-3) 1;
        check (-7) (-2) 3 (-1));
    t "division by zero raises" (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Bigint.divmod Bigint.one Bigint.zero)));
    t "pow" (fun () ->
        Alcotest.check bigint "2^100"
          (bs "1267650600228229401496703205376")
          (Bigint.pow (bi 2) 100);
        Alcotest.check bigint "x^0" Bigint.one (Bigint.pow (bi 42) 0);
        Alcotest.check bigint "(-3)^3" (bi (-27)) (Bigint.pow (bi (-3)) 3));
    t "pow rejects negative exponent" (fun () ->
        Alcotest.check_raises "neg"
          (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
              ignore (Bigint.pow (bi 2) (-1))));
    t "gcd" (fun () ->
        Alcotest.check bigint "48,36" (bi 12) (Bigint.gcd (bi 48) (bi 36));
        Alcotest.check bigint "0,0" Bigint.zero (Bigint.gcd Bigint.zero Bigint.zero);
        Alcotest.check bigint "neg" (bi 6) (Bigint.gcd (bi (-12)) (bi 18)));
    t "two_pow_minus_one" (fun () ->
        Alcotest.check bigint "l=0" Bigint.zero (Bigint.two_pow_minus_one 0);
        Alcotest.check bigint "l=5" (bi 31) (Bigint.two_pow_minus_one 5);
        Alcotest.check bigint "l=70"
          (Bigint.pred (Bigint.pow (bi 2) 70))
          (Bigint.two_pow_minus_one 70));
    t "bit_length" (fun () ->
        Alcotest.(check int) "0" 0 (Bigint.bit_length Bigint.zero);
        Alcotest.(check int) "1" 1 (Bigint.bit_length Bigint.one);
        Alcotest.(check int) "2^64" 65
          (Bigint.bit_length (Bigint.pow (bi 2) 64)));
    t "mul_int matches mul" (fun () ->
        let x = bs "987654321987654321987654321" in
        Alcotest.check bigint "pos" (Bigint.mul x (bi 12345))
          (Bigint.mul_int x 12345);
        Alcotest.check bigint "neg" (Bigint.mul x (bi (-7)))
          (Bigint.mul_int x (-7)));
    t "to_float" (fun () ->
        Alcotest.(check (float 1e-6)) "1e3" 1000.0 (Bigint.to_float (bi 1000));
        Alcotest.(check (float 1e6)) "2^40"
          (Float.pow 2.0 40.0)
          (Bigint.to_float (Bigint.pow (bi 2) 40)));
    t "to_float huge magnitude is monotone-ish" (fun () ->
        let x = Bigint.pow (bi 10) 300 in
        let f = Bigint.to_float x in
        Alcotest.(check bool) "finite" true (Float.is_finite f);
        Alcotest.(check (float 1e-9)) "log10" 300.0 (Float.log10 f);
        Alcotest.(check bool) "overflow to inf eventually" true
          (Bigint.to_float (Bigint.pow (bi 10) 4000) = Float.infinity));
    t "mul_int min_int regression" (fun () ->
        (* Stdlib.abs min_int is still negative; the old single-limb path
           scrambled the limbs.  Expected values via the general mul. *)
        let cases = [ bi 3; bi (-1); bs "987654321987654321987654321";
                      Bigint.neg (bs "340282366920938463463374607431768211456") ] in
        List.iter
          (fun x ->
             Alcotest.check bigint
               (Bigint.to_string x ^ " * min_int")
               (Bigint.mul x (bi min_int))
               (Bigint.mul_int x min_int))
          cases;
        Alcotest.check bigint "round trip /"
          (bs "987654321987654321987654321")
          (Bigint.div (Bigint.mul_int (bs "987654321987654321987654321") min_int)
             (bi min_int)))
  ]

(* Property tests against the native-int oracle (all operands chosen so
   that the reference computation cannot overflow). *)
let property_tests =
  let pair = QCheck.pair arb_small_int arb_small_int in
  [ qtest "add matches int oracle" pair (fun (a, b) ->
        (* avoid overflow of the oracle *)
        QCheck.assume (not (a > 0 && b > max_int - a));
        QCheck.assume (not (a < 0 && b < min_int - a));
        Bigint.equal (Bigint.add (bi a) (bi b)) (bi (a + b)));
    qtest "mul matches int oracle"
      QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
      (fun (a, b) -> Bigint.equal (Bigint.mul (bi a) (bi b)) (bi (a * b)));
    qtest "divmod matches int oracle" pair (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = Bigint.divmod (bi a) (bi b) in
        Bigint.equal q (bi (a / b)) && Bigint.equal r (bi (a mod b)));
    qtest "string roundtrip" arb_big (fun x ->
        Bigint.equal x (Bigint.of_string (Bigint.to_string x)));
    qtest "add commutative" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    qtest "mul commutative" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    qtest "mul distributes over add"
      (QCheck.triple arb_big arb_big arb_big)
      (fun (a, b, c) ->
         Bigint.equal
           (Bigint.mul a (Bigint.add b c))
           (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    qtest "sub then add is identity" (QCheck.pair arb_big arb_big)
      (fun (a, b) -> Bigint.equal a (Bigint.add (Bigint.sub a b) b));
    qtest "divmod reconstructs" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (Bigint.is_zero b));
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    qtest "gcd divides both" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (Bigint.is_zero a) || not (Bigint.is_zero b));
        let g = Bigint.gcd a b in
        Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g));
    qtest "compare antisymmetric" (QCheck.pair arb_big arb_big)
      (fun (a, b) -> Bigint.compare a b = -Bigint.compare b a);
    qtest "bit_length vs doubling" arb_big (fun a ->
        QCheck.assume (not (Bigint.is_zero a));
        Bigint.bit_length (Bigint.mul_int a 2) = Bigint.bit_length a + 1)
  ]

(* Native ints clustered at the promotion boundary (min_int/max_int). *)
let arb_boundary_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [ (2, oneofl [ min_int; min_int + 1; max_int; max_int - 1; 0; 1; -1 ]);
          (3, map (fun k -> min_int + k) (int_range 0 1000));
          (3, map (fun k -> max_int - k) (int_range 0 1000));
          (2, int) ])

(* The representation is canonical exactly when the unboxed tier is used iff
   the value fits a native int; [compare] is value-based, so this check does
   not depend on the tier. *)
let canonical v =
  let fits =
    Bigint.leq (Bigint.abs v) (Bigint.of_int max_int)
    || Bigint.equal v (Bigint.of_int min_int)
  in
  Bigint.Internal.is_small v = fits

let boundary_tests =
  let pair = QCheck.pair arb_boundary_int arb_boundary_int in
  [ qtest "mul_int matches mul at boundary ints"
      (QCheck.pair arb_big arb_boundary_int)
      (fun (x, k) -> Bigint.equal (Bigint.mul_int x k) (Bigint.mul x (bi k)));
    qtest "add/sub/mul stay canonical at the boundary" pair (fun (a, b) ->
        List.for_all canonical
          [ Bigint.add (bi a) (bi b); Bigint.sub (bi a) (bi b);
            Bigint.mul (bi a) (bi b); Bigint.neg (bi a) ]);
    qtest "divmod reconstructs at the boundary" pair (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = Bigint.divmod (bi a) (bi b) in
        canonical q && canonical r
        && Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r));
    qtest "add matches a two-word oracle at the boundary" pair (fun (a, b) ->
        (* Split-add oracle: (a + b) computed via halves can't overflow. *)
        let half x = (x asr 1, x land 1) in
        let ha, la = half a and hb, lb = half b in
        let expect =
          Bigint.add
            (Bigint.mul_int (Bigint.add_int (bi ha) hb) 2)
            (bi (la + lb))
        in
        Bigint.equal expect (Bigint.add (bi a) (bi b)));
    Alcotest.test_case "neg of 2^62 is the native min_int" `Quick (fun () ->
        let two62 = Bigint.neg (bi min_int) in
        List.iter
          (fun (what, v) ->
            Alcotest.(check bool) what true (canonical v);
            Alcotest.check bigint what (bi min_int) v)
          [ ("neg", Bigint.neg two62); ("0 - 2^62", Bigint.sub Bigint.zero two62) ]);
    Alcotest.test_case "min_int divided by 2^62 is -1" `Quick (fun () ->
        let two62 = Bigint.neg (bi min_int) in
        let q, r = Bigint.divmod (bi min_int) two62 in
        Alcotest.check bigint "quotient" Bigint.minus_one q;
        Alcotest.check bigint "remainder" Bigint.zero r;
        let q, r = Bigint.divmod (bi (min_int + 1)) two62 in
        Alcotest.check bigint "quotient of min_int + 1" Bigint.zero q;
        Alcotest.check bigint "remainder of min_int + 1" (bi (min_int + 1)) r)
  ]

let suite = unit_tests @ property_tests @ boundary_tests

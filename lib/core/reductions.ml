let or_points ~count =
  Array.init count (fun idx -> Rat.of_bigint (Bigint.two_pow_minus_one (idx + 1)))

(* Every solution of the paper's systems is an integer vector (model
   counts or their differences), so a non-integer unknown indicates an
   oracle bug. *)
let integers ~what sol =
  Array.map
    (fun r ->
       if not (Rat.is_integer r) then
         failwith (what ^ ": non-integral solution (broken oracle?)");
       Rat.to_bigint r)
    sol

(* Solve the Vandermonde system at nodes 2^l − 1 for integer unknowns. *)
let solve_integer_vandermonde ~points ~values ~what =
  Obs.with_span "reductions.solve_integer_vandermonde"
    ~attrs:[ ("nodes", Trace.Int (Array.length points)); ("for", Trace.Str what) ]
  @@ fun () -> integers ~what (Linalg.vandermonde_solve ~points ~values)

(* ------------------------------------------------------------------ *)
(* Lemma 3.2 *)

let shap_via_kcounts ~n ~kcount_full ~kcount_drop =
  if Kvec.universe_size kcount_full <> n then
    invalid_arg "shap_via_kcounts: full vector has wrong universe";
  (* The n drop-vectors are independent oracle consultations — the
     expensive part — so they fan out over the [--jobs] pool; the cheap
     Shapley arithmetic below stays sequential. *)
  let drops = Par.map_n kcount_drop n in
  Array.init n (fun pos ->
      let drop = drops.(pos) in
      if Kvec.universe_size drop <> n - 1 then
        invalid_arg "shap_via_kcounts: drop vector has wrong universe";
      (* #_k F[X_i:=1] = #_{k+1} F − #_{k+1} F[X_i:=0], so the marginal
         at size k is #_{k+1}F − #_{k+1}F[X_i:=0] − #_k F[X_i:=0]. *)
      Combi.shapley_of_diffs ~n (fun k ->
          Bigint.sub
            (Bigint.sub (Kvec.get kcount_full (k + 1)) (Kvec.get drop (k + 1)))
            (Kvec.get drop k)))

(* ------------------------------------------------------------------ *)
(* Lemma 3.3 *)

let kcounts_via_counting ~n ~count_subst =
  Obs.with_span "reductions.kcounts_via_counting"
    ~attrs:[ ("n", Trace.Int n) ]
  @@ fun () ->
  let points = or_points ~count:(n + 1) in
  Obs.phase "lemma3.3.consult" ~attrs:[ ("n", Trace.Int n) ];
  (* The n+1 arity consultations are independent: fan out ([--jobs]). *)
  let values =
    Par.map_n (fun idx -> Rat.of_bigint (count_subst ~l:(idx + 1))) (n + 1)
  in
  Obs.phase "lemma3.3.solve" ~attrs:[ ("n", Trace.Int n) ];
  let counts =
    solve_integer_vandermonde ~points ~values ~what:"kcounts_via_counting"
  in
  Kvec.make ~n counts

let kcounts_via_counting_and ~n ~count_subst =
  (* Claim 3.7: #F^(l) = Σ_k (2^l−1)^{n−k} #_k F.  Substituting j = n−k
     turns it into a standard Vandermonde system in y_j = #_{n−j} F. *)
  let points = or_points ~count:(n + 1) in
  let values =
    Par.map_n (fun idx -> Rat.of_bigint (count_subst ~l:(idx + 1))) (n + 1)
  in
  let y =
    solve_integer_vandermonde ~points ~values ~what:"kcounts_via_counting_and"
  in
  Kvec.make ~n (Array.init (n + 1) (fun k -> y.(n - k)))

(* ------------------------------------------------------------------ *)
(* Prior work [13]: fixed-size counts from probabilistic evaluation.

   Under the product distribution with uniform tuple probability θ,
   P_θ(F) = Σ_k #_k F · θ^k (1−θ)^{n−k}.  Dividing by (1−θ)^n gives a
   polynomial in the odds ρ = θ/(1−θ) with coefficients #_k F, so n+1
   evaluations at distinct probabilities recover the counts by
   interpolation — the Deutch–Frost–Kimelfeld–Monet route from Shapley
   values to PQE, implemented here as the historical baseline next to the
   paper's OR-substitution route (Lemma 3.3). *)

let kcounts_via_probability ~n ~prob =
  let points =
    Array.init (n + 1) (fun j ->
        (* θ_j = (j+1)/(n+2) ∈ (0,1), pairwise distinct odds *)
        let theta = Rat.of_ints (j + 1) (n + 2) in
        Rat.div theta (Rat.sub Rat.one theta))
  in
  (* n+1 independent θ-evaluations of the PQE oracle: fan out ([--jobs]). *)
  let values =
    Par.map_n
      (fun j ->
         let theta = Rat.of_ints (j + 1) (n + 2) in
         let p = prob ~theta in
         (* P_θ / (1−θ)^n *)
         let rec pow r k = if k = 0 then Rat.one else Rat.mul r (pow r (k - 1)) in
         Rat.div p (pow (Rat.sub Rat.one theta) n))
      (n + 1)
  in
  Kvec.make ~n
    (integers ~what:"kcounts_via_probability"
       (Linalg.vandermonde_solve ~points ~values))

(* ------------------------------------------------------------------ *)
(* Lemma 3.4 *)

(* Weight of the difference d_j = #_j F[X_i:=1] − #_j F[X_i:=0] in
   Shap(F^(l,i), Z_i).

   PROOF REPAIR (documented in DESIGN.md §"Lemma 3.4 repair"): the paper's
   proof displays the weight (2^l−1)^j c_j, which evaluates Eq. (2) with
   the coefficients of the *original* n variables; but F^(l,i) has
   N = (n−1)l + 1 variables, and with the correct c_k^{(N)} the weight is

     M[l,j] = ∫_0^1 (1−q^l)^j q^{l(n−1−j)} dq
            = j! · l^j / Π_{a=n−1−j}^{n−1} (a·l + 1),

   obtained from the Bernoulli-measure representation of the Shapley value
   (each of the n−1 fresh blocks is "hit" independently with probability
   1−(1−p)^l).  At l = 1 this reduces to c_j, as it must.  The matrix
   (M[l,j])_{l=1..n, j=0..n−1} is still nonsingular: scaling row l by
   l · Π_{a=0}^{n−1}(a + 1/l) makes column j a monic polynomial of degree
   n−1−j in 1/l, and polynomials of pairwise distinct degrees evaluated at
   distinct points 1/l form a nonsingular matrix.  So Lemma 3.4 holds with
   the same oracle calls and a repaired linear system, solved here by
   exact Gaussian elimination. *)
let lemma34_weight ~n ~l ~j =
  if j < 0 || j > n - 1 || l < 1 then invalid_arg "lemma34_weight";
  let num = Bigint.mul (Combi.factorial j) (Bigint.pow (Bigint.of_int l) j) in
  let den = ref Bigint.one in
  for a = n - 1 - j to n - 1 do
    den := Bigint.mul !den (Bigint.of_int ((a * l) + 1))
  done;
  Rat.make num !den

(* LU-factor the Lemma 3.4 system once per query: the matrix M[l,j] depends
   only on [n], not on the variable position, so a single factorization is
   shared (it is immutable) across all n per-position solves — including the
   [Par.map_n] fan-out — turning each recovery into an O(n^2) substitution. *)
let lemma34_factor ~n =
  let matrix =
    Array.init n (fun row ->
        Array.init n (fun j -> lemma34_weight ~n ~l:(row + 1) ~j))
  in
  match Linalg.lu_factor matrix with
  | None -> failwith "count_via_shap: singular system (impossible)"
  | Some f -> f

(* Recover, for one variable position, the differences
   d_j = #_j F[X_i:=1] − #_j F[X_i:=0] for j = 0..n−1 from the oracle
   values Shap(F^(l,i), Z_i) = Σ_j M[l,j] d_j, l = 1..n. *)
let differences_for_position ~lu ~n ~shap_subst ~pos =
  let values = Array.init n (fun idx -> shap_subst ~l:(idx + 1) ~pos) in
  integers ~what:"count_via_shap" (Linalg.lu_solve lu values)

let kcounts_via_shap ~n ~f_zero ~shap_subst =
  (* Claim 3.6: Σ_i d_k(i) = (k+1) #_{k+1} F − (n−k) #_k F; telescope from
     #_0 F = F(0). *)
  let sums = Array.make n Bigint.zero in
  (* The n per-position difference recoveries (n oracle calls each) are
     independent: fan out ([--jobs]), then accumulate in index order so
     the sums are reproducible. *)
  let lu = lemma34_factor ~n in
  let ds =
    Par.map_n
      (fun pos ->
         Obs.phase "lemma3.4.position" ~attrs:[ ("pos", Trace.Int pos) ];
         differences_for_position ~lu ~n ~shap_subst ~pos)
      n
  in
  Array.iter
    (fun d -> Array.iteri (fun k dk -> sums.(k) <- Bigint.add sums.(k) dk) d)
    ds;
  let counts = Array.make (n + 1) Bigint.zero in
  counts.(0) <- (if f_zero then Bigint.one else Bigint.zero);
  for k = 0 to n - 1 do
    let numerator =
      Bigint.add sums.(k) (Bigint.mul_int counts.(k) (n - k))
    in
    let q, r = Bigint.divmod numerator (Bigint.of_int (k + 1)) in
    if not (Bigint.is_zero r) then
      failwith "count_via_shap: telescoping failed (broken oracle?)";
    counts.(k + 1) <- q
  done;
  Kvec.make ~n counts

type estimate = { variable : int; value : float; half_width : float }

let samples_for ~eps ~delta =
  if eps <= 0.0 || delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Sampling.samples_for";
  (* marginals range over [-1, 1], width 2: m >= 2 ln(2/δ) / ε² *)
  let m = ceil (2.0 *. log (2.0 /. delta) /. (eps *. eps)) in
  if not (Float.is_finite m) || m > 1e15 then
    invalid_arg "Sampling.samples_for: bound above 1e15 samples";
  int_of_float m

(* {1 Estimator suite} *)

type estimator = Truncated | Antithetic

let estimator_of_string = function
  | "truncated" -> Some Truncated
  | "antithetic" -> Some Antithetic
  | _ -> None

let estimator_name = function
  | Truncated -> "truncated"
  | Antithetic -> "antithetic"

(* Fixed seed-stream tag per estimator, part of every batch's RNG key.
   Truncation skips evaluations but draws no randomness, so a truncated
   walk and an uncut one on an equivalent non-positive formula return
   identical estimates — the bench asserts exactly that. *)
let estimator_tag = function
  | Truncated -> 1
  | Antithetic -> 3

type progress = {
  pr_samples : int;
  pr_half_width : float;
  pr_elapsed : float;
}

type report = {
  estimates : estimate list;
  samples_used : int;
  evals : int;
  converged : bool;
  wall : float;
  monitor : Convergence.t;
}

(* One worker batch's exact integer accumulators.  Marginal sums stay in
   [int] (marginals are in {-1, 0, 1}, pair sums in {-2, ..., 2}),
   so the float moments derived from them — and therefore the merged
   monitor state — depend only on the batch schedule, never on how many
   domains executed it. *)
type batch = {
  b_sums : int array;  (* per player: Σ observation-numerator *)
  b_sumsq : int array;  (* per player: Σ (observation-numerator)² *)
  b_units : int;  (* observations contributed *)
  b_evals : int;  (* prefix evaluations *)
}

(* batch geometry: permutations consumed by one observation, which is
   also the scale of its int numerator *)
let unit_perms = function
  | Truncated -> 1
  | Antithetic -> 2

let batches_per_round = 4
let target_batch_perms = 64

let run_batch ~walker ~n ~truncate ~estimator ~seed ~batch_index ~units =
  let st = Random.State.make [| seed; estimator_tag estimator; batch_index |] in
  let perm = Array.init n Fun.id in
  let sums = Array.make n 0
  and sumsq = Array.make n 0
  and marg = Array.make n 0 in
  let evals = ref 0 in
  let shuffle () =
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done
  in
  let w = Walker.start walker in
  (* walk players [order 0 .. order (n-1)], leaving each player's
     marginal in [marg].  With [truncate] (positive formulas only), once
     the prefix satisfies [f] every later marginal is 0 by
     monotonicity, so the remaining evaluations are skipped. *)
  let walk order =
    Walker.reset w;
    incr evals;
    let value = ref (Walker.value w) in
    for j = 0 to n - 1 do
      let i = order j in
      if truncate && !value then marg.(i) <- 0
      else begin
        Walker.add w i;
        incr evals;
        let value' = Walker.value w in
        marg.(i) <- Bool.to_int value' - Bool.to_int !value;
        value := value'
      end
    done
  in
  let forward j = perm.(j) in
  (match estimator with
  | Truncated ->
      for _ = 1 to units do
        shuffle ();
        walk forward;
        for i = 0 to n - 1 do
          sums.(i) <- sums.(i) + marg.(i);
          sumsq.(i) <- sumsq.(i) + (marg.(i) * marg.(i))
        done
      done
  | Antithetic ->
      let first = Array.make n 0 in
      for _ = 1 to units do
        shuffle ();
        walk forward;
        Array.blit marg 0 first 0 n;
        walk (fun j -> perm.(n - 1 - j));
        for i = 0 to n - 1 do
          let s = first.(i) + marg.(i) in
          sums.(i) <- sums.(i) + s;
          sumsq.(i) <- sumsq.(i) + (s * s)
        done
      done);
  { b_sums = sums; b_sumsq = sumsq; b_units = units; b_evals = !evals }

let merge_batch monitor ~scale ~players b =
  if b.b_units > 0 then begin
    let c = float_of_int b.b_units in
    for i = 0 to players - 1 do
      let s = float_of_int b.b_sums.(i)
      and q = float_of_int b.b_sumsq.(i) in
      let mean = s /. (scale *. c) in
      let m2 = Float.max 0.0 ((q -. (s *. s /. c)) /. (scale *. scale)) in
      Convergence.merge_moments monitor ~player:i ~count:b.b_units ~mean ~m2
    done
  end

let shap_estimate ?(estimator = Truncated) ?(seed = 0) ?(delta = 0.05) ?eps
    ?max_samples ?deadline ?(ci = Convergence.Bernstein)
    ?(interval = Convergence.default_interval) ?jsonl ?progress ~vars f =
  if not (Vset.subset (Formula.vars f) (Vset.of_list vars)) then
    invalid_arg "Sampling.shap_estimate: universe misses variables";
  let sorted = Array.of_list (List.sort_uniq compare vars) in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sampling.shap_estimate: no players";
  (match eps with
  | Some e when e <= 0.0 -> invalid_arg "Sampling.shap_estimate: eps <= 0"
  | _ -> ());
  (match deadline with
  | Some d when d <= 0.0 -> invalid_arg "Sampling.shap_estimate: deadline <= 0"
  | _ -> ());
  let max_samples =
    match max_samples with
    | Some m ->
        if m <= 0 then invalid_arg "Sampling.shap_estimate: max_samples <= 0";
        m
    | None -> (
        match eps with
        | Some e -> samples_for ~eps:e ~delta
        | None -> 10_000)
  in
  let walker = Walker.compile ~players:sorted f in
  let truncate = estimator = Truncated && Nf.is_positive f in
  let per_unit = unit_perms estimator in
  let scale = float_of_int per_unit in
  let units_per_batch = max 1 (target_batch_perms / per_unit) in
  let total_units = (max_samples + per_unit - 1) / per_unit in
  let name = estimator_name estimator in
  let monitor =
    Convergence.create ~ci ~delta ~range:2.0 ~interval ?jsonl ~estimator:name
      ~players:n ()
  in
  let started = Unix.gettimeofday () in
  let units_done = ref 0
  and evals = ref 0
  and round = ref 0
  and stop = ref false in
  while not !stop do
    let remaining = total_units - !units_done in
    if remaining <= 0 then stop := true
    else begin
      (* A round is always [batches_per_round] slots with globally-indexed
         seeds; slot sizes derive from counts alone, so the schedule — and
         with in-order merging below, the result — is the same at any
         [--jobs]. *)
      let slots =
        Array.init batches_per_round (fun b ->
            let before = b * units_per_batch in
            let units = min units_per_batch (max 0 (remaining - before)) in
            ((!round * batches_per_round) + b, units))
      in
      let results =
        Par.map
          (fun (batch_index, units) ->
            if units = 0 then None
            else
              Some
                (Obs.call ~oracle:("estimator." ^ name) ~n
                   ~size:(units * per_unit) (fun () ->
                     run_batch ~walker ~n ~truncate ~estimator ~seed
                       ~batch_index ~units)))
          slots
      in
      Array.iter
        (function
          | None -> ()
          | Some b ->
              merge_batch monitor ~scale ~players:n b;
              Convergence.advance monitor (b.b_units * per_unit);
              units_done := !units_done + b.b_units;
              evals := !evals + b.b_evals)
        results;
      incr round;
      let elapsed = Unix.gettimeofday () -. started in
      let hw = Convergence.max_certified_half_width monitor in
      (match eps with
      | Some e when hw <= e -> stop := true
      | _ -> ());
      (match deadline with
      | Some d when elapsed >= d -> stop := true
      | _ -> ());
      match progress with
      | Some k ->
          k
            {
              pr_samples = !units_done * per_unit;
              pr_half_width = hw;
              pr_elapsed = elapsed;
            }
      | None -> ()
    end
  done;
  Convergence.finish monitor;
  let converged =
    match eps with
    | Some e -> Convergence.max_certified_half_width monitor <= e
    | None -> false
  in
  let estimates =
    Array.to_list
      (Array.mapi
         (fun i v ->
           {
             variable = v;
             value = Convergence.mean monitor ~player:i;
             half_width = Convergence.certified_half_width monitor ~player:i;
           })
         sorted)
  in
  {
    estimates;
    samples_used = !units_done * per_unit;
    evals = !evals;
    converged;
    wall = Unix.gettimeofday () -. started;
    monitor;
  }

(* Estimator convergence telemetry: streaming per-player moments,
   selectable confidence intervals, and checkpoints fanned into Obs /
   Metrics / JSONL.  See convergence.mli. *)

type ci = Hoeffding | Clt | Bernstein

let ci_of_string = function
  | "hoeffding" -> Some Hoeffding
  | "clt" -> Some Clt
  | "bernstein" -> Some Bernstein
  | _ -> None

let ci_name = function
  | Hoeffding -> "hoeffding"
  | Clt -> "clt"
  | Bernstein -> "bernstein"

(* Acklam's rational approximation to the inverse normal CDF.  Three
   regimes (lower tail / central / upper tail); |relative error| is
   below 1.2e-8 over (0, 1), far tighter than any δ a caller will pass. *)
let z_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Convergence.z_quantile: p outside (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02;
       -2.759285104469687e+02; 1.383577518672690e+02;
       -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02;
       -1.556989798598866e+02; 6.680131188771972e+01;
       -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01;
       -2.400758277161838e+00; -2.549732539343734e+00;
       4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01;
       2.445134137142996e+00; 3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let tail q sign =
    let n =
      ((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
      *. q
      +. c.(5)
    and m =
      (((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0
    in
    sign *. n /. m
  in
  if p < p_low then tail (sqrt (-2.0 *. log p)) 1.0
  else if p > 1.0 -. p_low then tail (sqrt (-2.0 *. log (1.0 -. p))) (-1.0)
  else
    let q = p -. 0.5 in
    let r = q *. q in
    let n =
      ((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
      *. r
      +. a.(5)
    and m =
      ((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
      *. r
      +. 1.0
    in
    q *. n /. m

let hw_of ~ci ~delta ~range ~count ~variance =
  if count <= 0 then infinity
  else
    let m = float_of_int count in
    match ci with
    | Hoeffding -> range *. sqrt (log (2.0 /. delta) /. (2.0 *. m))
    | Clt ->
        if count < 2 then infinity
        else z_quantile (1.0 -. (delta /. 2.0)) *. sqrt (variance /. m)
    | Bernstein ->
        if count < 2 then infinity
        else
          let l = log (3.0 /. delta) in
          sqrt (2.0 *. variance *. l /. m) +. (3.0 *. range *. l /. m)

(* One player's Welford accumulator: count, running mean, and m2 = sum
   of squared deviations from the mean. *)
type player = {
  mutable p_count : int;
  mutable p_mean : float;
  mutable p_m2 : float;
  mutable p_best_hw : float;  (* running-min envelope, checkpoint-stamped *)
}

type t = {
  c_estimator : string;
  c_players : player array;
  c_ci : ci;
  c_delta : float;
  c_range : float;
  c_interval : int;
  c_jsonl : out_channel option;
  c_started : float;
  c_lock : Mutex.t;
  mutable c_samples : int;
  mutable c_last_cp_samples : int;  (* sample count at last checkpoint *)
  mutable c_emitted : int;
  mutable c_finished : bool;
}

let default_interval = 512

let create ?(ci = Bernstein) ?(delta = 0.05) ?(range = 2.0)
    ?(interval = default_interval) ?jsonl ~estimator ~players () =
  if players <= 0 then invalid_arg "Convergence.create: players <= 0";
  if interval <= 0 then invalid_arg "Convergence.create: interval <= 0";
  if not (range > 0.0) then invalid_arg "Convergence.create: range <= 0";
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Convergence.create: delta outside (0, 1)";
  {
    c_estimator = estimator;
    c_players =
      Array.init players (fun _ ->
          { p_count = 0; p_mean = 0.0; p_m2 = 0.0; p_best_hw = infinity });
    c_ci = ci;
    c_delta = delta;
    c_range = range;
    c_interval = interval;
    c_jsonl = jsonl;
    c_started = Unix.gettimeofday ();
    c_lock = Mutex.create ();
    c_samples = 0;
    c_last_cp_samples = -1;
    c_emitted = 0;
    c_finished = false;
  }

let with_lock t f =
  Mutex.lock t.c_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.c_lock) f

let variance_of p =
  if p.p_count < 2 then 0.0 else p.p_m2 /. float_of_int (p.p_count - 1)

let instant_hw t p =
  hw_of ~ci:t.c_ci ~delta:t.c_delta ~range:t.c_range ~count:p.p_count
    ~variance:(variance_of p)

let observe t ~player x =
  with_lock t (fun () ->
      let p = t.c_players.(player) in
      p.p_count <- p.p_count + 1;
      let d = x -. p.p_mean in
      p.p_mean <- p.p_mean +. (d /. float_of_int p.p_count);
      p.p_m2 <- p.p_m2 +. (d *. (x -. p.p_mean)))

let merge_moments t ~player ~count ~mean ~m2 =
  if count < 0 then invalid_arg "Convergence.merge_moments: count < 0";
  if count > 0 then
    with_lock t (fun () ->
        let p = t.c_players.(player) in
        if p.p_count = 0 then begin
          p.p_count <- count;
          p.p_mean <- mean;
          p.p_m2 <- m2
        end
        else begin
          (* Chan et al. pairwise combination of exact moments. *)
          let na = float_of_int p.p_count
          and nb = float_of_int count in
          let n = na +. nb in
          let d = mean -. p.p_mean in
          p.p_m2 <- p.p_m2 +. m2 +. (d *. d *. na *. nb /. n);
          p.p_mean <- p.p_mean +. (d *. nb /. n);
          p.p_count <- p.p_count + count
        end)

(* Fan one checkpoint into every sink.  Called under the lock. *)
let emit_checkpoint t =
  let n = Array.length t.c_players in
  let max_hw = ref 0.0
  and sum_hw = ref 0.0
  and max_var = ref 0.0 in
  Array.iter
    (fun p ->
      let hw = instant_hw t p in
      if hw < p.p_best_hw then p.p_best_hw <- hw;
      if p.p_best_hw > !max_hw then max_hw := p.p_best_hw;
      sum_hw := !sum_hw +. p.p_best_hw;
      let v = variance_of p in
      if v > !max_var then max_var := v)
    t.c_players;
  let index = t.c_emitted and mean_hw = !sum_hw /. float_of_int n in
  t.c_emitted <- t.c_emitted + 1;
  let delta_samples =
    t.c_samples - max 0 t.c_last_cp_samples
  in
  t.c_last_cp_samples <- t.c_samples;
  let labels = [ ("estimator", t.c_estimator) ] in
  if delta_samples > 0 then
    Metrics.inc ~labels ~by:(float_of_int delta_samples) "estimator_samples";
  Metrics.inc ~labels "estimator_checkpoints";
  if !max_hw < infinity then
    Metrics.set ~labels "estimator_ci_half_width" !max_hw;
  let attrs =
    [
      ("estimator", Trace.Str t.c_estimator);
      ("ci", Trace.Str (ci_name t.c_ci));
      ("samples", Trace.Int t.c_samples);
      ("checkpoint", Trace.Int index);
      ("max_half_width", Trace.Float !max_hw);
      ("mean_half_width", Trace.Float mean_hw);
      ("max_variance", Trace.Float !max_var);
    ]
  in
  Obs.phase ~attrs "estimator.checkpoint";
  (match t.c_jsonl with
  | Some oc ->
      (* No wall-clock stamps: the line is a pure function of the sample
         stream, so replayed runs (and -j1 vs -j4) diff bit-identically. *)
      let fl x =
        if x = infinity then "null" else Printf.sprintf "%.17g" x
      in
      let vars =
        Array.to_list t.c_players
        |> List.map (fun p -> fl (variance_of p))
        |> String.concat ","
      in
      Printf.fprintf oc
        "{\"estimator\":%S,\"ci\":%S,\"checkpoint\":%d,\"samples\":%d,\
         \"max_half_width\":%s,\"mean_half_width\":%s,\"max_variance\":%s,\
         \"players\":%d,\"variance\":[%s]}\n"
        t.c_estimator (ci_name t.c_ci) index t.c_samples (fl !max_hw)
        (fl mean_hw) (fl !max_var) n vars;
      flush oc
  | None -> ())

let advance t k =
  if k < 0 then invalid_arg "Convergence.advance: negative"
  else if k > 0 then
    with_lock t (fun () ->
        let before = t.c_samples / t.c_interval in
        t.c_samples <- t.c_samples + k;
        if t.c_samples / t.c_interval > before then emit_checkpoint t)

let finish t =
  with_lock t (fun () ->
      if not t.c_finished then begin
        t.c_finished <- true;
        if t.c_samples > t.c_last_cp_samples then emit_checkpoint t;
        Metrics.observe
          ~labels:[ ("estimator", t.c_estimator) ]
          "estimator_seconds"
          (Unix.gettimeofday () -. t.c_started);
        match t.c_jsonl with Some oc -> flush oc | None -> ()
      end)

let samples t = with_lock t (fun () -> t.c_samples)
let mean t ~player = with_lock t (fun () -> t.c_players.(player).p_mean)
let variance t ~player =
  with_lock t (fun () -> variance_of t.c_players.(player))

let certified_half_width t ~player =
  with_lock t (fun () -> t.c_players.(player).p_best_hw)

let max_certified_half_width t =
  with_lock t (fun () ->
      Array.fold_left
        (fun acc p -> if p.p_best_hw > acc then p.p_best_hw else acc)
        0.0 t.c_players)

let emitted t = with_lock t (fun () -> t.c_emitted)

(* Reference answers, computed in-process from the same generated text
   the daemon loads, and the checks of daemon responses against them. *)

module J = Tiny_json

type expect =
  | Page of (int * string * string) list  (* fact, num, den; by fact *)
  | Fact of int * string * string
  | Approx of Sampling.report

let exact (d : Inputs.db) =
  let values, _ = Dichotomy.shapley d.Inputs.db d.Inputs.query in
  List.sort compare
    (List.map
       (fun (id, r) ->
         (id, Bigint.to_string (Rat.num r), Bigint.to_string (Rat.den r)))
       values)

(* The estimator run an approx request asks for. *)
let approx (d : Inputs.db) seed =
  let estimator =
    Option.get (Sampling.estimator_of_string Inputs.approx_estimator)
  and ci = Option.get (Convergence.ci_of_string Inputs.approx_ci) in
  Sampling.shap_estimate ~estimator ~seed ~delta:Inputs.approx_delta
    ~eps:Inputs.approx_eps ~max_samples:Inputs.approx_budget ~ci
    ~vars:(Inputs.facts d)
    (Lineage.lineage_formula d.Inputs.db d.Inputs.query)

(* [Array.map f a] on two domains; the references are computed before
   any daemon runs, so both cores are free. *)
let map2 f a =
  let out = Array.make (Array.length a) None in
  let half parity () =
    Array.iteri (fun i x -> if i mod 2 = parity then out.(i) <- Some (f x)) a
  in
  let other = Domain.spawn (half 1) in
  half 0 ();
  Domain.join other;
  Array.map Option.get out

(* One expectation per distinct request.  [corrupt] alters the first
   rational of the first request, for the self-test that a wrong answer
   is caught. *)
let expectations (s : Inputs.serve) ~corrupt =
  let exact_path =
    Array.exists
      (fun (r : Inputs.request) -> match r.Inputs.kind with Inputs.Approx _ -> false | _ -> true)
      s.Inputs.distinct
  in
  let exact_of = if exact_path then map2 exact s.Inputs.dbs else [||] in
  let expects =
    map2
      (fun (r : Inputs.request) ->
        match r.Inputs.kind with
        | Inputs.Page -> Page exact_of.(r.Inputs.db_index)
        | Inputs.Fact id ->
          let _, num, den =
            List.find (fun (i, _, _) -> i = id) exact_of.(r.Inputs.db_index)
          in
          Fact (id, num, den)
        | Inputs.Approx seed -> Approx (approx s.Inputs.dbs.(r.Inputs.db_index) seed))
      s.Inputs.distinct
  in
  (if corrupt then
     match expects.(0) with
     | Page ((id, num, den) :: rest) ->
       let num = Bigint.to_string (Bigint.succ (Bigint.of_string num)) in
       expects.(0) <- Page ((id, num, den) :: rest)
     | _ -> invalid_arg "Reference.expectations: nothing to corrupt");
  expects

let ( let* ) = Option.bind

let str k j =
  let* v = J.member k j in
  J.to_str v

let int k j =
  let* v = J.member k j in
  J.to_int v

let list k j =
  let* v = J.member k j in
  J.to_list v

let rat_is j (num, den) =
  match J.member "shapley" j with
  | Some r -> str "num" r = Some num && str "den" r = Some den
  | None -> false

(* Non-finite floats have no JSON form; the daemon prints them as null. *)
let float_is j x =
  match Option.bind j J.to_float with
  | Some y -> Float.equal x y
  | None -> not (Float.is_finite x)

(* Exact answers compare as num/den decimal strings; approximate ones
   bit for bit, with the sample and evaluation counts. *)
let check expect body =
  let j = J.parse body in
  match expect with
  | Page exp -> (
      match list "values" j with
      | Some vs ->
        J.member "next_cursor" j = None
        && List.length vs = List.length exp
        && List.for_all2
             (fun v (id, num, den) -> int "fact" v = Some id && rat_is v (num, den))
             vs exp
      | None -> false)
  | Fact (id, num, den) -> int "fact" j = Some id && rat_is j (num, den)
  | Approx rep -> (
      int "samples" j = Some rep.Sampling.samples_used
      && int "evals" j = Some rep.Sampling.evals
      &&
      match list "values" j with
      | Some vs ->
        List.length vs = List.length rep.Sampling.estimates
        && List.for_all2
             (fun v (e : Sampling.estimate) ->
               int "fact" v = Some e.Sampling.variable
               && float_is (J.member "value" v) e.Sampling.value
               && float_is (J.member "half_width" v) e.Sampling.half_width)
             vs rep.Sampling.estimates
      | None -> false)

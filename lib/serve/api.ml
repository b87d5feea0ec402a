module J = Tiny_json

type entry = {
  name : string;
  db : Database.t;
  query : Cq.t;
  facts : (int * string * Value.t array) array;
  key : string option Atomic.t;
}

(* Answers are amortized by the serving cache: the full answer, with
   each fact's rendered page element, is content-keyed in a shared
   {!Shapmc_cache.Cache.t}, and concurrent misses of one query
   single-flight, so unrelated requests never wait on each other. *)
type t = {
  list : entry list;
  index : (string, entry) Hashtbl.t;  (* name -> entry; read-only *)
  cache : Cache.t;
  created : float;  (* load stamp: the /healthz uptime base *)
}

(* Service version reported by /healthz. *)
let version = "0.10.0"

let facts_of db =
  let all =
    List.concat_map
      (fun rel ->
        List.filter_map
          (fun (st : Database.stored) ->
            match st.Database.lvar with
            | Some v -> Some (v, rel, st.Database.values)
            | None -> None)
          (Database.tuples db rel))
      (Database.relation_names db)
  in
  let arr = Array.of_list all in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) arr;
  arr

let of_pairs ?(cache = Cache.create ()) pairs =
  let index = Hashtbl.create 16 in
  let list =
    List.map
      (fun (name, (db, query)) ->
        if Hashtbl.mem index name then
          invalid_arg ("Api.of_pairs: duplicate query name " ^ name);
        let e =
          { name; db; query; facts = facts_of db; key = Atomic.make None }
        in
        Hashtbl.add index name e;
        e)
      pairs
  in
  { list; index; cache; created = Unix.gettimeofday () }

let load_files ?cache files =
  of_pairs ?cache
    (List.map (fun (name, path) -> (name, Db_parser.parse_file path)) files)

let entries t = t.list

let find t name = Hashtbl.find_opt t.index name

(* [lower_bound n id_at x] is the first index [i < n] with
   [id_at i >= x], or [n]; [id_at] ascends. *)
let lower_bound n id_at x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if id_at mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let id_at facts i =
  let id, _, _ = facts.(i) in
  id

(* Index of [id] in an ascending sequence, by binary search. *)
let search n id_at id =
  let i = lower_bound n id_at id in
  if i < n && id_at i = id then Some i else None

let answer_index (a : Cache.answer) id =
  search (Array.length a.Cache.facts) (Array.get a.Cache.facts) id

module Rat_table = Hashtbl.Make (Rat)

(* A fact's element of a [/v1/shapley/all] page, rendered once per
   answer on the cache fill: byte for byte [J.to_string] of the object
   [{"fact", "relation", "tuple", "shapley"}].  Most facts share their
   value with another (the facts of one group of a hierarchical lineage
   are symmetric), so [shapley], a table that lives for one fill,
   renders each distinct value's fragment once. *)
let render_element e shapley id v =
  let rel, tuple = Database.tuple_of_var e.db id in
  let fragment =
    match Rat_table.find_opt shapley v with
    | Some s -> s
    | None ->
      let s = J.to_string (Json_codec.rat v) in
      Rat_table.add shapley v s;
      s
  in
  String.concat ""
    [ {|{"fact":|}; string_of_int id;
      {|,"relation":|}; J.to_string (J.Str rel);
      {|,"tuple":|}; J.to_string (Json_codec.tuple tuple);
      {|,"shapley":|}; fragment; "}" ]

(* The cache miss is this layer's oracle consultation: the full
   Shapley solve.  Ledger it so per-request buffers, the access log and
   /metrics attribute solver time to the request that paid for it —
   cache hits make zero ledger calls, so a warm request's profile shows
   [oracle_calls = 0]. *)
let ledgered_solve e k =
  Obs.call ~oracle:"api.shapley_all"
    ~n:(Array.length e.facts)
    ~attrs:[ ("query", Trace.Str e.name) ]
    (fun () -> Obs.with_span "api.solve" k)

(* An entry's content is fixed at load, so its content key is too: it
   is computed on the entry's first answer and kept.  Not at load, where
   a daemon with many databases would pay every key before its first
   request.  Two first answers racing both compute the same key. *)
let content_key e =
  match Atomic.get e.key with
  | Some k -> k
  | None ->
    let k = Db_fingerprint.result_key e.db e.query in
    Atomic.set e.key (Some k);
    k

let shapley_all t entry =
  match find t entry.name with
  | Some e when e == entry ->
    Dichotomy.shapley_cached ~cache:t.cache ~key:(content_key e)
      ~on_miss:(fun run -> ledgered_solve e run)
      ~render:(render_element e (Rat_table.create 16)) e.db e.query
  | _ -> invalid_arg ("Api.shapley_all: unknown entry " ^ entry.name)

(* ------------------------------------------------------------------ *)
(* Cursors: "f" + zero-padded decimal, so token order IS fact order.   *)

let cursor_width = 12

let cursor_of_fact id = Printf.sprintf "f%0*d" cursor_width id

let fact_of_cursor s =
  if
    String.length s = cursor_width + 1
    && s.[0] = 'f'
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 cursor_width)
  then int_of_string_opt (String.sub s 1 cursor_width)
  else None

let default_limit = 100

let max_limit = 1000

(* ------------------------------------------------------------------ *)
(* Handlers: each is a chain of checks over [result], whose first
   failure is the response (a ready-to-send error); [respond] ends the
   chain.                                                              *)

let ( let* ) = Result.bind

let respond = function Ok resp | Error resp -> resp

(* [found status message opt]: the value, or an error whose
   [message ()] is built only on a miss. *)
let found status message = function
  | Some x -> Ok x
  | None -> Error (Json_codec.error status (message ()))

let require ok message =
  if ok then Ok () else Error (Json_codec.error 400 message)

(* Shared pagination: [facts] sorted ascending; a page is the first
   [limit] facts strictly after the cursor's id, [facts.(start)] to
   [facts.(stop - 1)]. *)
let paginate ~cursor ~limit facts =
  let* after =
    match cursor with
    | None -> Ok (-1)
    | Some c ->
      found 400 (fun () -> "malformed cursor: " ^ c) (fact_of_cursor c)
  in
  let* () =
    require
      (match limit with Some l -> l >= 1 | None -> true)
      "limit must be at least 1"
  in
  let limit = min max_limit (Option.value ~default:default_limit limit) in
  let n = Array.length facts in
  let start = lower_bound n (id_at facts) (after + 1) in
  let stop = start + min limit (n - start) in
  let next =
    if stop < n && stop > start then
      Some (cursor_of_fact (id_at facts (stop - 1)))
    else None
  in
  Ok (start, stop, next)

let classification_string q =
  match Dichotomy.classify q with
  | Dichotomy.Hierarchical -> "hierarchical"
  | Dichotomy.Non_hierarchical _ -> "non-hierarchical"
  | Dichotomy.Has_self_joins -> "self-joins"
  | Dichotomy.Has_negation -> "negation"

let solver_string = function
  | Dichotomy.Safe_plan_circuit -> "safe-plan-circuit"
  | Dichotomy.Compiled_dnf -> "compiled-dnf"

let healthz t _req =
  let uptime = Float.max 0. (Unix.gettimeofday () -. t.created) in
  Json_codec.json_response
    (J.Obj
       [ ("status", J.Str "ok");
         ("version", J.Str version);
         ("pid", J.Int (Unix.getpid ()));
         ("uptime_seconds", J.Float uptime);
         ("queries", J.Int (List.length t.list)) ])

let queries t _req =
  Json_codec.json_response
    (J.Obj
       [ ( "queries",
           J.List
             (List.map
                (fun e ->
                  J.Obj
                    [ ("name", J.Str e.name);
                      ("query", J.Str (Cq.to_string e.query));
                      ("facts", J.Int (Array.length e.facts));
                      ( "classification",
                        J.Str (classification_string e.query) ) ])
                t.list) ) ])

let entry t name = found 404 (fun () -> "no such query: " ^ name) (find t name)

let fact_json (id, rel, tuple) =
  J.Obj
    [ ("id", J.Int id);
      ("cursor", J.Str (cursor_of_fact id));
      ("relation", J.Str rel);
      ("tuple", Json_codec.tuple tuple) ]

let facts t (req : Http.request) =
  respond
  @@
  let param k = List.assoc_opt k req.Http.query in
  let* name =
    found 400 (fun () -> "missing query parameter: query") (param "query")
  in
  let* e = entry t name in
  let* limit =
    match param "limit" with
    | None -> Ok None
    | Some raw -> (
        match int_of_string_opt raw with
        | Some l -> Ok (Some l)
        | None -> Error (Json_codec.error 400 ("malformed limit: " ^ raw)))
  in
  let* start, stop, next = paginate ~cursor:(param "cursor") ~limit e.facts in
  let page = Array.to_list (Array.sub e.facts start (stop - start)) in
  Ok
    (Json_codec.json_response
       (J.Obj
          ([ ("query", J.Str name);
             ("total", J.Int (Array.length e.facts));
             ("facts", J.List (List.map fact_json page)) ]
          @
          match next with
          | Some c -> [ ("next_cursor", J.Str c) ]
          | None -> [])))

let shapley t (req : Http.request) =
  respond
  @@
  let* body = Json_codec.parse_body req in
  let* name = Json_codec.field "query" J.to_str ~must_be:"a string" body in
  let* fact_id =
    Json_codec.field "fact" J.to_int ~must_be:"an integer" body
  in
  let* e = entry t name in
  let* i =
    found 404
      (fun () -> Printf.sprintf "query %s has no fact %d" name fact_id)
      (search (Array.length e.facts) (id_at e.facts) fact_id)
  in
  let id, rel, tuple = e.facts.(i) in
  let a, solver = shapley_all t e in
  let* j =
    found 500
      (fun () -> Printf.sprintf "no Shapley value for fact %d" id)
      (answer_index a id)
  in
  Ok
    (Json_codec.json_response
       (J.Obj
          [ ("query", J.Str name);
            ("fact", J.Int id);
            ("relation", J.Str rel);
            ("tuple", Json_codec.tuple tuple);
            ("solver", J.Str (solver_string solver));
            ("shapley", Json_codec.rat a.Cache.values.(j)) ]))

(* A page's body is its facts' elements, rendered on the cache fill,
   between a head and a tail: the answer's own strings, with a ","
   between two, copied nowhere.  Concatenated, the parts are byte for
   byte what [Json_codec.json_response] prints of the equivalent
   tree. *)
let shapley_all_route t (req : Http.request) =
  respond
  @@
  let* body = Json_codec.parse_body req in
  let* name = Json_codec.field "query" J.to_str ~must_be:"a string" body in
  let* cursor =
    Json_codec.opt_field "cursor" J.to_str ~must_be:"a string" body
  in
  let* limit =
    Json_codec.opt_field "limit" J.to_int ~must_be:"an integer" body
  in
  let* e = entry t name in
  let* start, stop, next = paginate ~cursor ~limit e.facts in
  let a, solver = shapley_all t e in
  let head =
    String.concat ""
      [ {|{"query":|}; J.to_string (J.Str name);
        {|,"total":|}; string_of_int (Array.length e.facts);
        {|,"solver":|}; J.to_string (J.Str (solver_string solver));
        {|,"values":[|} ]
  and tail =
    match next with
    | Some c ->
      String.concat "" [ {|],"next_cursor":|}; J.to_string (J.Str c); "}\n" ]
    | None -> "]}\n"
  in
  let parts = ref [ tail ] and last = ref true in
  for i = stop - 1 downto start do
    match answer_index a (id_at e.facts i) with
    | None -> ()
    | Some j ->
      if not !last then parts := "," :: !parts;
      last := false;
      parts := a.Cache.elements.(j) :: !parts
  done;
  Ok (Json_codec.concat_response (head :: !parts))

(* ------------------------------------------------------------------ *)
(* Approximate Shapley: the sampling path for queries (or SLAs) the
   exact solver cannot serve.  Uncached by design — every request is a
   fresh estimator run whose convergence checkpoints land in the
   request's buffer, so /v1/debug/requests/:id shows the CI shrinking. *)

(* Server-side clamp on the per-request permutation budget. *)
let approx_max_samples = 100_000

let approx_defaults = (0.05, 0.05) (* eps, delta *)

(* [named kind of_string default name]: the named setting, [default]
   when absent. *)
let named kind of_string default = function
  | None -> Ok default
  | Some s ->
    found 400 (fun () -> Printf.sprintf "unknown %s: %s" kind s) (of_string s)

let shapley_approx t (req : Http.request) =
  respond
  @@
  let* body = Json_codec.parse_body req in
  let* name = Json_codec.field "query" J.to_str ~must_be:"a string" body in
  let* eps = Json_codec.opt_field "eps" J.to_float ~must_be:"a number" body in
  let* delta =
    Json_codec.opt_field "delta" J.to_float ~must_be:"a number" body
  in
  let* seed =
    Json_codec.opt_field "seed" J.to_int ~must_be:"an integer" body
  in
  let* max_samples =
    Json_codec.opt_field "max_samples" J.to_int ~must_be:"an integer" body
  in
  let* est_name =
    Json_codec.opt_field "estimator" J.to_str ~must_be:"a string" body
  in
  let* ci_name = Json_codec.opt_field "ci" J.to_str ~must_be:"a string" body in
  let d_eps, d_delta = approx_defaults in
  let eps = Option.value ~default:d_eps eps
  and delta = Option.value ~default:d_delta delta
  and seed = Option.value ~default:0 seed in
  let* estimator =
    named "estimator" Sampling.estimator_of_string Sampling.Truncated est_name
  in
  let* ci = named "ci" Convergence.ci_of_string Convergence.Bernstein ci_name in
  let* () = require (eps > 0.0) "eps must be positive" in
  let* () = require (delta > 0.0 && delta < 1.0) "delta must lie in (0, 1)" in
  let* () =
    require
      (match max_samples with Some m -> m >= 1 | None -> true)
      "max_samples must be at least 1"
  in
  let* e = entry t name in
  let* () =
    if Array.length e.facts > 0 then Ok ()
    else
      Error
        (Json_codec.error 400
           (Printf.sprintf "query %s has no endogenous facts" name))
  in
  let budget =
    let requested =
      match max_samples with
      | Some m -> m
      | None -> (
          (* the Hoeffding bound, when it fits the clamp *)
          match Sampling.samples_for ~eps ~delta with
          | m -> m
          | exception Invalid_argument _ -> approx_max_samples)
    in
    min approx_max_samples requested
  in
  let f = Lineage.lineage_formula e.db e.query in
  let vars =
    Vset.elements
      (Array.fold_left
         (fun acc (id, _, _) -> Vset.add id acc)
         (Formula.vars f) e.facts)
  in
  let report =
    Obs.call ~oracle:"api.shapley_approx"
      ~n:(List.length vars)
      ~attrs:[ ("query", Trace.Str e.name) ]
      (fun () ->
        Obs.with_span "api.approx" (fun () ->
            Sampling.shap_estimate ~estimator ~seed ~delta ~eps
              ~max_samples:budget ~ci ~vars f))
  in
  let by_var =
    List.fold_left
      (fun acc (est : Sampling.estimate) -> (est.Sampling.variable, est) :: acc)
      [] report.Sampling.estimates
  in
  let values =
    Array.to_list e.facts
    |> List.filter_map (fun (id, rel, tuple) ->
           match List.assoc_opt id by_var with
           | None -> None
           | Some est ->
             Some
               (J.Obj
                  [ ("fact", J.Int id);
                    ("relation", J.Str rel);
                    ("tuple", Json_codec.tuple tuple);
                    ("value", J.Float est.Sampling.value);
                    ("half_width", J.Float est.Sampling.half_width) ]))
  in
  Ok
    (Json_codec.json_response
       (J.Obj
          [ ("query", J.Str name);
            ("estimator", J.Str (Sampling.estimator_name estimator));
            ("ci", J.Str (Convergence.ci_name ci));
            ("eps", J.Float eps);
            ("delta", J.Float delta);
            ("samples", J.Int report.Sampling.samples_used);
            ("evals", J.Int report.Sampling.evals);
            ("converged", J.Bool report.Sampling.converged);
            ( "max_half_width",
              J.Float
                (Convergence.max_certified_half_width report.Sampling.monitor)
            );
            ("values", J.List values) ]))

let routes t =
  [ Router.route Http.GET "/healthz" (healthz t);
    Router.route Http.GET "/v1/queries" (queries t);
    Router.route Http.GET "/v1/facts" (facts t);
    Router.route Http.POST "/v1/shapley" (shapley t);
    Router.route Http.POST "/v1/shapley/all" (shapley_all_route t);
    Router.route Http.POST "/v1/shapley/approx" (shapley_approx t) ]

(* Seeded workload inputs.

   Every workload is built from fixed "slots".  A slot's shape — how many
   tuples a database has and how they group, which Q0 edges exist, which
   clauses a formula has — is drawn from a constant per-slot seed, so
   every workload seed asks for the same amount of solver work.  The
   workload seed draws everything else: the constants in the tuples, the
   row order (and so which lineage variable each fact gets), the literal
   signs of the formulas, the estimator seeds and the request order.  Two
   seeds therefore give different inputs (and different answers) of equal
   cost, which keeps run-to-run spread down to machine noise. *)

module J = Tiny_json

type workload = Serve_hot | Serve_churn | Serve_approx | Batch_reduce

let workloads =
  [ ("serve-hot", Serve_hot);
    ("serve-churn", Serve_churn);
    ("serve-approx", Serve_approx);
    ("batch-reduce", Batch_reduce) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let of_name s = List.assoc_opt s workloads

let tag = function
  | Serve_hot -> 1
  | Serve_churn -> 2
  | Serve_approx -> 3
  | Batch_reduce -> 4

let shape_rng w slot = Random.State.make [| 0x5eed; tag w; slot |]

let seed_rng w seed = Random.State.make [| seed; tag w |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [k] distinct constants from 1..1000. *)
let constants rng k =
  let pool = Array.init 1000 succ in
  shuffle rng pool;
  Array.sub pool 0 k

(* ------------------------------------------------------------------ *)
(* Databases *)

type db = {
  name : string;
  text : string;  (* the .db file the daemon loads *)
  hierarchical : bool;
  db : Database.t;
  query : Cq.t;
}

let db_of_text name ~hierarchical text =
  let db, query = Db_parser.parse_string text in
  { name; text; hierarchical; db; query }

let render ~schema ~rows ~query =
  String.concat "\n" (schema @ rows @ [ "query " ^ query ]) ^ "\n"

(* Hierarchical [R(x), S(x,y)] with [n] endogenous tuples: [k] R-tuples,
   and the remaining [n - k] S-tuples split over them (each R-tuple gets
   at least one). *)
let hierarchical_db w ~slot ~rng ~name ~n ~k =
  let shape = shape_rng w slot in
  let parts = Array.make k 1 in
  for _ = 1 to n - (2 * k) do
    let i = Random.State.int shape k in
    parts.(i) <- parts.(i) + 1
  done;
  let xs = constants rng k in
  let rows =
    Array.to_list (Array.map (Printf.sprintf "row R %d") xs)
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i m ->
                Array.to_list
                  (Array.map (Printf.sprintf "row S %d %d" xs.(i))
                     (constants rng m)))
              parts))
  in
  let rows = Array.of_list rows in
  shuffle rng rows;
  db_of_text name ~hierarchical:true
    (render
       ~schema:[ "rel R endo 1"; "rel S endo 2" ]
       ~rows:(Array.to_list rows) ~query:"R(x), S(x, y)")

(* The non-hierarchical Q0 = R(x), S(x,y), T(y) on a 5x5 bipartite graph
   at density 0.5 (13 of the 25 edges): R and T are the endogenous
   players, S the exogenous edge set (the paper's hardness encoding). *)
let q0_db w ~slot ~rng ~name =
  let shape = shape_rng w slot in
  let cells = Array.init 25 Fun.id in
  shuffle shape cells;
  let xs = constants rng 5 and ys = constants rng 5 in
  let rows =
    Array.to_list (Array.map (Printf.sprintf "row R %d") xs)
    @ Array.to_list (Array.map (Printf.sprintf "row T %d") ys)
    @ List.init 13 (fun e ->
          Printf.sprintf "row S %d %d" xs.(cells.(e) / 5) ys.(cells.(e) mod 5))
  in
  let rows = Array.of_list rows in
  shuffle rng rows;
  db_of_text name ~hierarchical:false
    (render
       ~schema:[ "rel R endo 1"; "rel S exo 2"; "rel T endo 1" ]
       ~rows:(Array.to_list rows) ~query:"R(x), S(x, y), T(y)")

(* ------------------------------------------------------------------ *)
(* Requests *)

type kind =
  | Page  (** POST /v1/shapley/all: every fact of the query *)
  | Fact of int  (** POST /v1/shapley: one fact *)
  | Approx of int  (** POST /v1/shapley/approx with this estimator seed *)

type request = { db_index : int; kind : kind; path : string; body : string }

(* The approx requests name the daemon's default parameters explicitly,
   so the in-process reference runs the same estimator whatever the
   defaults become. *)
let approx_eps = 0.05

let approx_delta = 0.05

let approx_estimator = "truncated"

let approx_ci = "bernstein"

let approx_budget = Sampling.samples_for ~eps:approx_eps ~delta:approx_delta

let request dbs db_index kind =
  let query = ("query", J.Str dbs.(db_index).name) in
  let path, fields =
    match kind with
    | Page -> ("/v1/shapley/all", [ query ])
    | Fact id -> ("/v1/shapley", [ query; ("fact", J.Int id) ])
    | Approx seed ->
      ( "/v1/shapley/approx",
        [ query;
          ("seed", J.Int seed);
          ("eps", J.Float approx_eps);
          ("delta", J.Float approx_delta);
          ("max_samples", J.Int approx_budget);
          ("estimator", J.Str approx_estimator);
          ("ci", J.Str approx_ci) ] )
  in
  { db_index; kind; path; body = J.to_string (J.Obj fields) }

let facts d = Vset.elements (Database.lineage_vars d.db)

type serve = {
  dbs : db array;
  distinct : request array;  (* each distinct request once: the warm-up *)
  sequence : int array;  (* the measured loop cycles over these indices *)
}

let serve w seed =
  let rng = seed_rng w seed in
  match w with
  | Serve_hot ->
    (* 8 hierarchical databases of 64 tuples; requests 3:1 full page
       to single fact. *)
    let dbs =
      Array.init 8 (fun i ->
          hierarchical_db w ~slot:i ~rng ~name:(Printf.sprintf "h%03d" i)
            ~n:64 ~k:8)
    in
    let pages = Array.init 8 (fun i -> request dbs i Page) in
    let fact_reqs =
      Array.map
        (fun i -> Array.of_list (List.map (fun id -> request dbs i (Fact id)) (facts dbs.(i))))
        (Array.init 8 Fun.id)
    in
    let offsets = Array.make 8 8 in
    for i = 1 to 7 do
      offsets.(i) <- offsets.(i - 1) + Array.length fact_reqs.(i - 1)
    done;
    let sequence =
      Array.init 4096 (fun j ->
          let i = Random.State.int rng 8 in
          if j mod 4 = 3 then
            offsets.(i) + Random.State.int rng (Array.length fact_reqs.(i))
          else i)
    in
    { dbs; distinct = Array.concat (pages :: Array.to_list fact_reqs); sequence }
  | Serve_churn ->
    (* 160 hierarchical databases of 48..80 tuples and 32 Q0 5x5, more
       than the circuit tier (128) and the shapley tier (8192 facts)
       hold, requested round-robin so the LRU misses. *)
    let hier =
      Array.init 160 (fun i ->
          hierarchical_db w ~slot:i ~rng ~name:(Printf.sprintf "h%03d" i)
            ~n:(48 + (i mod 33)) ~k:(6 + (i mod 5)))
    in
    let q0 =
      Array.init 32 (fun i ->
          q0_db w ~slot:(1000 + i) ~rng ~name:(Printf.sprintf "q%03d" i))
    in
    let dbs = Array.append hier q0 in
    let sequence = Array.init (Array.length dbs) Fun.id in
    shuffle rng sequence;
    { dbs; distinct = Array.mapi (fun i _ -> request dbs i Page) dbs; sequence }
  | Serve_approx ->
    (* 8 Q0 5x5 databases x 16 estimator seeds, every request a fresh
       sampling run. *)
    let dbs =
      Array.init 8 (fun i ->
          q0_db w ~slot:i ~rng ~name:(Printf.sprintf "q%03d" i))
    in
    let distinct =
      Array.init (8 * 16) (fun j ->
          request dbs (j / 16) (Approx (Random.State.bits rng)))
    in
    let sequence = Array.init (Array.length distinct) Fun.id in
    shuffle rng sequence;
    { dbs; distinct; sequence }
  | Batch_reduce -> invalid_arg "Inputs.serve: batch-reduce has no daemon"

let serve_digest s =
  let b = Buffer.create 65536 in
  Array.iter (fun d -> Buffer.add_string b (d.name ^ "\n" ^ d.text)) s.dbs;
  Array.iter
    (fun r -> Buffer.add_string b (r.path ^ " " ^ r.body ^ "\n"))
    s.distinct;
  Array.iter (fun i -> Buffer.add_string b (string_of_int i ^ ",")) s.sequence;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Formulas *)

type direction =
  | Shap  (** Shapley values through a counting oracle (Lemmas 3.2+3.3) *)
  | Count  (** a model count through a Shapley oracle (Lemma 3.4) *)

type formula = { dir : direction; n : int; text : string }

(* A DNF of [n] two-literal clauses over x1..xn; clause [i] holds x(i+1)
   and one other variable, so every variable occurs.  The shape and a
   base sign per literal come from the slot; the seed flips each
   variable's sign throughout the formula, a renaming of x to !x that
   leaves the search the solvers do unchanged in size. *)
let formula w ~slot ~rng ~dir ~n =
  let shape = shape_rng w slot in
  let flip = Array.init (n + 1) (fun _ -> Random.State.bool rng) in
  let lit v =
    let neg = (Random.State.int shape 4 = 0) <> flip.(v) in
    if neg then Formula.not_ (Formula.var v) else Formula.var v
  in
  let clauses =
    List.init n (fun i ->
        let v = i + 1 in
        let u = 1 + ((i + 1 + Random.State.int shape (n - 1)) mod n) in
        Formula.and_ [ lit v; lit u ])
  in
  { dir; n; text = Formula.to_string (Formula.or_ clauses) }

(* 96 formulas with n in {5,6} go Shap <= #, 32 with n in {4,5} go
   # <= Shap, in a seeded order.  One sub-window, a pass or 128 answers,
   lasts about a second.  The sign flips of a seed change what a formula
   costs by up to a third, so the classes are sized for the percentiles
   to fall inside one, where many formulas of about the same cost lie:
   by cost, the 32 # <= Shap formulas come first, then the 48 Shap
   formulas with n = 5, which hold p50, then the 48 with n = 6, which
   hold p90. *)
let formulas seed =
  let w = Batch_reduce in
  let rng = seed_rng w seed in
  let shap =
    List.concat_map
      (fun n ->
        List.init 48 (fun i ->
            formula w ~slot:((100 * n) + i) ~rng ~dir:Shap ~n))
      [ 5; 6 ]
  and count =
    List.concat_map
      (fun n ->
        List.init 16 (fun i ->
            formula w ~slot:(1000 + (100 * n) + i) ~rng ~dir:Count ~n))
      [ 4; 5 ]
  in
  let all = Array.of_list (shap @ count) in
  shuffle rng all;
  all

let formulas_digest fs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list
             (Array.map
                (fun f ->
                  Printf.sprintf "%s %d %s"
                    (match f.dir with Shap -> "shap" | Count -> "count")
                    f.n f.text)
                fs))))

let digest w seed =
  match w with
  | Batch_reduce -> formulas_digest (formulas seed)
  | _ -> serve_digest (serve w seed)

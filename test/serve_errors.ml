(* Prints the status, headers and exact body of every failure of the
   Shapley API's body- and parameter-decoding routes, dispatched in
   process through [Api.routes] and the real request parser.  The
   output is pinned by serve_errors.expected (diffed under runtest), so
   a change to the decoders or the error shape shows up byte for byte:
   which field's error wins when several are bad, each message, and the
   order of the semantic checks.  The router's 404 and 405 close it. *)

open Shapmc_db
module Http = Shapmc_serve.Http
module Limits = Shapmc_serve.Limits
module Router = Shapmc_serve.Router
module Api = Shapmc_serve.Api

(* Example 13: Q = R1(x), R2(x) over four endogenous facts. *)
let demo =
  "rel R1 endo 1\nrow R1 1\nrow R1 2\nrel R2 endo 1\nrow R2 1\nrow R2 2\n\
   query R1(x), R2(x)\n"

(* Every fact exogenous: a loaded query with no players. *)
let empty = "rel S exo 1\nrow S 1\nrow S 2\nquery S(x)\n"

let routes =
  Api.routes
    (Api.of_pairs
       [ ("demo", Db_parser.parse_string demo);
         ("empty", Db_parser.parse_string empty) ])

let dispatch raw =
  let p = Http.create ~limits:Limits.default in
  Http.feed p raw;
  Http.eof p;
  match Http.poll p with
  | Http.Request req -> snd (Router.dispatch routes req)
  | _ -> failwith ("request does not parse: " ^ raw)

let show label raw =
  let r = dispatch raw in
  Printf.printf "== %s\n%d\n" label r.Router.status;
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) r.Router.headers;
  List.iter print_string r.Router.body

let get label path =
  show label (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path)

let post path (label, body) =
  show
    (path ^ " " ^ label)
    (Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" path
       (String.length body) body)

let () =
  List.iter
    (post "/v1/shapley")
    [ ("not JSON", "not json");
      ("empty body", "");
      ("array body", "[1,2]");
      ("missing query", {|{"fact":1}|});
      ("missing fact", {|{"query":"demo"}|});
      ("missing both", {|{}|});
      ("query of wrong type", {|{"query":1,"fact":1}|});
      ("query null", {|{"query":null,"fact":1}|});
      ("fact of wrong type", {|{"query":"demo","fact":"one"}|});
      ("fact not integral", {|{"query":"demo","fact":1.5}|});
      ("both of wrong type", {|{"query":1,"fact":"one"}|});
      ("missing query, bad fact", {|{"fact":"one"}|});
      ("unknown query", {|{"query":"zzz","fact":1}|});
      ("unknown fact", {|{"query":"demo","fact":99}|}) ];
  List.iter
    (post "/v1/shapley/all")
    [ ("not JSON", "{");
      ("missing query", {|{"limit":2}|});
      ("query of wrong type", {|{"query":["demo"]}|});
      ("cursor of wrong type", {|{"query":"demo","cursor":5}|});
      ("limit of wrong type", {|{"query":"demo","limit":"ten"}|});
      ("limit not integral", {|{"query":"demo","limit":2.5}|});
      ("all three bad", {|{"query":1,"cursor":5,"limit":"ten"}|});
      ("cursor and limit bad", {|{"query":"demo","cursor":5,"limit":"ten"}|});
      ("malformed cursor", {|{"query":"demo","cursor":"x"}|});
      ("limit 0", {|{"query":"demo","limit":0}|});
      ("limit -1", {|{"query":"demo","limit":-1}|});
      ("malformed cursor and limit 0", {|{"query":"demo","cursor":"x","limit":0}|});
      ("unknown query", {|{"query":"zzz"}|});
      ("unknown query, malformed cursor", {|{"query":"zzz","cursor":"x"}|}) ];
  List.iter
    (post "/v1/shapley/approx")
    [ ("not JSON", "nope");
      ("missing query", {|{"eps":0.1}|});
      ("query of wrong type", {|{"query":true}|});
      ("eps of wrong type", {|{"query":"demo","eps":"small"}|});
      ("delta of wrong type", {|{"query":"demo","delta":"x"}|});
      ("seed of wrong type", {|{"query":"demo","seed":"x"}|});
      ("seed not integral", {|{"query":"demo","seed":1.5}|});
      ("max_samples of wrong type", {|{"query":"demo","max_samples":"x"}|});
      ("estimator of wrong type", {|{"query":"demo","estimator":1}|});
      ("ci of wrong type", {|{"query":"demo","ci":1}|});
      ( "every field bad",
        {|{"query":1,"eps":"a","delta":"b","seed":"c","max_samples":"d","estimator":1,"ci":1}|}
      );
      ( "all but query bad",
        {|{"query":"demo","eps":"a","delta":"b","seed":"c","max_samples":"d","estimator":1,"ci":1}|}
      );
      ( "delta on bad",
        {|{"query":"demo","delta":"b","seed":"c","max_samples":"d","estimator":1,"ci":1}|}
      );
      ( "seed on bad",
        {|{"query":"demo","seed":"c","max_samples":"d","estimator":1,"ci":1}|} );
      ( "max_samples on bad",
        {|{"query":"demo","max_samples":"d","estimator":1,"ci":1}|} );
      ("estimator and ci bad", {|{"query":"demo","estimator":1,"ci":1}|});
      ("unknown estimator", {|{"query":"demo","estimator":"bogus"}|});
      ("retired estimator", {|{"query":"demo","estimator":"permutation"}|});
      ("unknown ci", {|{"query":"demo","ci":"bogus"}|});
      ("unknown estimator and ci", {|{"query":"demo","estimator":"x","ci":"y"}|});
      ("unknown estimator, eps 0", {|{"query":"demo","estimator":"x","eps":0}|});
      ("eps 0", {|{"query":"demo","eps":0}|});
      ("eps -1", {|{"query":"demo","eps":-1}|});
      ("delta 0", {|{"query":"demo","delta":0}|});
      ("delta 1", {|{"query":"demo","delta":1}|});
      ("delta 2", {|{"query":"demo","delta":2}|});
      ("eps 0, delta 2", {|{"query":"demo","eps":0,"delta":2}|});
      ("max_samples 0", {|{"query":"demo","max_samples":0}|});
      ("max_samples -5", {|{"query":"demo","max_samples":-5}|});
      ("unknown query", {|{"query":"zzz"}|});
      ("unknown query, eps 0", {|{"query":"zzz","eps":0}|});
      ("no endogenous facts", {|{"query":"empty"}|}) ];
  List.iter
    (fun (label, path) -> get ("/v1/facts " ^ label) path)
    [ ("missing query", "/v1/facts");
      ("missing query, with limit", "/v1/facts?limit=2");
      ("unknown query", "/v1/facts?query=nope");
      ("malformed cursor", "/v1/facts?query=demo&cursor=zzz");
      ("malformed limit", "/v1/facts?query=demo&limit=ten");
      ("limit 0", "/v1/facts?query=demo&limit=0");
      ("malformed cursor, limit 0", "/v1/facts?query=demo&cursor=zzz&limit=0");
      ("malformed cursor and limit", "/v1/facts?query=demo&cursor=zzz&limit=ten");
      ("unknown query, malformed cursor", "/v1/facts?query=nope&cursor=zzz") ];
  (* The router's own failures share the error shape. *)
  get "unknown path" "/v1/nope";
  get "wrong method" "/v1/shapley"

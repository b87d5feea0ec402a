(** Black-box tests for the [shapmc serve] stack.

    - [Http]: the incremental parser as a pure function of the byte
      stream — split-invariance fuzzing over valid/corrupted requests
      cut at random boundaries, never-raises, terminal outcome after
      eof, and exact limit boundaries (header cap → 400, declared body
      over cap → 413 before any body byte), and allocation linear in
      the body's size.
    - [Tiny_json]: [parse (to_string v) = v] round-trip over random
      documents including control characters and non-ASCII bytes.
    - [Router]/[Api]: routing (404/405 + Allow/500), the JSON API
      handlers, cursor pagination (random page sizes enumerate every
      fact exactly once; golden empty-query and last-page cases), and
      the bit-identical check against {!Dichotomy.shapley}.
    - [Server]: a real socket server on an ephemeral port driven by a
      tiny in-file HTTP client — keep-alive, limit enforcement on the
      wire, concurrent clients at jobs∈{1,4} getting identical exact
      answers, [/metrics] round-tripped through the OpenMetrics parser,
      and port release after shutdown.
    - [Pool.Exec]: the persistent executor underneath it all.
    - The response writer: it sends [render_response]'s bytes, parts
      below, at and above its buffer arrive whole over a socket pair, a
      peer closing mid-body raises nothing, and a warm page allocates
      (almost) nothing directly in the major heap. *)

open Helpers
module Http = Shapmc_serve.Http
module Router = Shapmc_serve.Router
module Limits = Shapmc_serve.Limits
module Json_codec = Shapmc_serve.Json_codec
module Api = Shapmc_serve.Api
module Server = Shapmc_serve.Server
module Request_id = Shapmc_serve.Request_id
module Access_log = Shapmc_serve.Access_log
module Telemetry = Shapmc_serve.Telemetry
module Tail = Shapmc_serve.Tail
module J = Tiny_json

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let demo_query () = Db_parser.parse_query "R1(x), R2(x)"

(* Example 13: four endogenous facts, every Shapley value 1/4. *)
let demo_api () = Api.of_pairs [ ("demo", (example13_db (), demo_query ())) ]

(* [n] endogenous facts in one unary relation — pagination fodder. *)
let page_db n =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  for i = 1 to n do
    ignore (Database.insert db "R" [| Value.int i |])
  done;
  db

let page_api n =
  Api.of_pairs [ ("page", (page_db n, Db_parser.parse_query "R(x)")) ]

(* All facts exogenous: the query is loaded but has zero players. *)
let empty_api () =
  let db = Database.create () in
  Database.declare db "S" ~kind:Database.Exogenous ~arity:1;
  ignore (Database.insert db "S" [| Value.int 1 |]);
  ignore (Database.insert db "S" [| Value.int 2 |]);
  Api.of_pairs [ ("empty", (db, Db_parser.parse_query "S(x)")) ]

(* ------------------------------------------------------------------ *)
(* Direct-dispatch helpers (no socket): build a request through the
   real parser, run it through the real router.                        *)

let req_of_string ?(limits = Limits.default) s =
  let p = Http.create ~limits in
  Http.feed p s;
  Http.eof p;
  match Http.poll p with
  | Http.Request r -> r
  | Http.Reject (c, m) -> Alcotest.failf "unexpected reject %d: %s" c m
  | Http.Incomplete -> Alcotest.fail "unexpected incomplete"

let get routes path =
  snd
    (Router.dispatch routes
       (req_of_string (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path)))

let post routes path body =
  snd
    (Router.dispatch routes
       (req_of_string
          (Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
             path (String.length body) body)))

let status (r : Router.response) = r.Router.status

(* A body's bytes: its parts concatenated.  Tests compare these, never
   how a body is split into parts. *)
let body_of (r : Router.response) = String.concat "" r.Router.body

let json_of r = J.parse (body_of r)

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" name (J.to_string j)

let str_exn j = Option.get (J.to_str j)
let int_exn j = Option.get (J.to_int j)
let list_exn j = Option.get (J.to_list j)

(* (fact id, num, den) triples of a shapley/all response page. *)
let triples_of_values j =
  List.map
    (fun v ->
      let sh = member_exn "shapley" v in
      ( int_exn (member_exn "fact" v),
        str_exn (member_exn "num" sh),
        str_exn (member_exn "den" sh) ))
    (list_exn (member_exn "values" j))

(* The reference answer, straight off the solver entry point the batch
   CLI uses — decimal strings, so the comparison is bit-identical. *)
let reference_triples db q =
  let values, _ = Dichotomy.shapley db q in
  List.sort compare
    (List.map
       (fun (id, v) ->
         (id, Bigint.to_string (Rat.num v), Bigint.to_string (Rat.den v)))
       values)

(* ------------------------------------------------------------------ *)
(* HTTP parser: units                                                  *)

let parse_stream ?(limits = Limits.default) chunks =
  let p = Http.create ~limits in
  List.iter (Http.feed p) chunks;
  Http.eof p;
  (p, Http.poll p)

let expect_request chunks =
  match parse_stream chunks with
  | _, Http.Request r -> r
  | _, Http.Reject (c, m) -> Alcotest.failf "reject %d: %s" c m
  | _, Http.Incomplete -> Alcotest.fail "incomplete after eof"

let expect_reject ?limits chunks =
  match parse_stream ?limits chunks with
  | _, Http.Reject (c, _) -> c
  | _, Http.Request r ->
    Alcotest.failf "parsed %s %s" (Http.meth_to_string r.Http.meth)
      r.Http.target
  | _, Http.Incomplete -> Alcotest.fail "incomplete after eof"

let http_basic () =
  let r =
    expect_request
      [ "POST /v1/facts?query=a%20b&x=1+2 HTTP/1.1\r\n";
        "Host: localhost\r\nContent-Length: 5\r\n\r\nhello" ]
  in
  Alcotest.(check string) "method" "POST" (Http.meth_to_string r.Http.meth);
  Alcotest.(check string) "path" "/v1/facts" r.Http.path;
  Alcotest.(check (list (pair string string)))
    "query decoded"
    [ ("query", "a b"); ("x", "1 2") ]
    r.Http.query;
  Alcotest.(check string) "body" "hello" r.Http.body;
  Alcotest.(check (option string))
    "header lowercased" (Some "localhost") (Http.header r "host");
  Alcotest.(check bool) "keep-alive default" true (Http.wants_keep_alive r)

let http_byte_at_a_time () =
  let s = "GET /healthz HTTP/1.1\r\nx: y\r\n\r\n" in
  let whole = expect_request [ s ] in
  let bytes = List.init (String.length s) (fun i -> String.make 1 s.[i]) in
  let one = expect_request bytes in
  Alcotest.(check bool) "byte-at-a-time = whole" true (whole = one)

let http_bare_lf () =
  let r = expect_request [ "GET / HTTP/1.1\nHost: h\n\n" ] in
  Alcotest.(check string) "path" "/" r.Http.path;
  Alcotest.(check (option string)) "header" (Some "h") (Http.header r "host")

let http_rejects () =
  let reject400 s =
    Alcotest.(check int) ("400 for " ^ String.escaped s) 400
      (expect_reject [ s ])
  in
  reject400 "NOT A REQUEST\r\n\r\n";
  reject400 "GET / HTTP/2.0\r\n\r\n";
  reject400 "GET noslash HTTP/1.1\r\n\r\n";
  reject400 "GET / HTTP/1.1\r\nno colon here\r\n\r\n";
  reject400 "GET / HTTP/1.1\r\ncontent-length: two\r\n\r\n";
  reject400 "GET / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n";
  reject400 "GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
  (* truncated: eof strikes mid-headers and mid-body *)
  reject400 "GET / HTTP/1.1\r\nHost";
  reject400 "GET / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
  (* 0 bytes fed: still a 400 from [eof], but [bytes_fed] lets the
     server close silently *)
  let p, o = parse_stream [] in
  Alcotest.(check int) "bytes_fed empty" 0 (Http.bytes_fed p);
  (match o with
   | Http.Reject (400, _) -> ()
   | _ -> Alcotest.fail "empty stream should 400")

let header_request pad = Printf.sprintf "GET / HTTP/1.1\r\nx-pad: %s\r\n\r\n" pad

let http_header_cap_boundary () =
  let cap = 256 in
  let limits = { Limits.default with Limits.max_header_bytes = cap } in
  let pad_for len = String.make (len - String.length (header_request "")) 'a' in
  (* exactly at the cap: parses *)
  (match parse_stream ~limits [ header_request (pad_for cap) ] with
   | _, Http.Request _ -> ()
   | _, _ -> Alcotest.fail "header section of exactly max bytes must parse");
  (* one past: 400 *)
  Alcotest.(check int) "cap+1 rejects" 400
    (expect_reject ~limits [ header_request (pad_for (cap + 1)) ]);
  (* ...and the reject fires as soon as the cap is crossed, before any
     terminator arrives *)
  let p = Http.create ~limits in
  Http.feed p ("GET / HTTP/1.1\r\nx-pad: " ^ String.make (2 * cap) 'a');
  (match Http.poll p with
   | Http.Reject (400, _) -> ()
   | _ -> Alcotest.fail "oversized headers must reject without terminator")

let http_body_cap_boundary () =
  let cap = 64 in
  let limits = { Limits.default with Limits.max_body_bytes = cap } in
  let post_cl n body =
    Printf.sprintf "POST / HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" n body
  in
  (match parse_stream ~limits [ post_cl cap (String.make cap 'x') ] with
   | _, Http.Request r ->
     Alcotest.(check int) "body of exactly max bytes" cap
       (String.length r.Http.body)
   | _, _ -> Alcotest.fail "body of exactly max bytes must parse");
  Alcotest.(check int) "declared cap+1 rejects 413" 413
    (expect_reject ~limits [ post_cl (cap + 1) "" ]);
  (* the 413 fires off the declaration alone — no body byte fed yet *)
  let p = Http.create ~limits in
  Http.feed p (Printf.sprintf "POST / HTTP/1.1\r\ncontent-length: %d\r\n\r\n" (cap + 1));
  (match Http.poll p with
   | Http.Reject (413, _) -> ()
   | _ -> Alcotest.fail "413 must fire before the body arrives")

let http_pipelining_leftover () =
  let first = "GET /a HTTP/1.1\r\n\r\n" in
  let second = "GET /b HTTP/1.1\r\n\r\n" in
  let p = Http.create ~limits:Limits.default in
  Http.feed p (first ^ second);
  (match Http.poll p with
   | Http.Request r -> Alcotest.(check string) "first path" "/a" r.Http.path
   | _ -> Alcotest.fail "first request should parse");
  Alcotest.(check string) "second request is leftover" second (Http.leftover p);
  let p2 = Http.create ~limits:Limits.default in
  Http.feed p2 (Http.leftover p);
  (match Http.poll p2 with
   | Http.Request r -> Alcotest.(check string) "second path" "/b" r.Http.path
   | _ -> Alcotest.fail "leftover should parse as the next request")

let http_render_response () =
  let s =
    Http.render_response
      ~headers:[ ("Content-Type", "application/json") ]
      ~keep_alive:true ~status:200 ~body:[ "{}" ] ()
  in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and m = String.length s in
        let rec go i =
          i + n <= m && (String.sub s i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("response contains " ^ needle) true found)
    [ "HTTP/1.1 200 OK\r\n";
      "Content-Length: 2\r\n";
      "Connection: keep-alive\r\n";
      "Content-Type: application/json\r\n";
      "\r\n\r\n{}" ]

(* ------------------------------------------------------------------ *)
(* HTTP parser: split-invariance fuzz                                  *)

let gen_valid_request =
  let open QCheck.Gen in
  let* meth = oneofl [ "GET"; "POST"; "HEAD"; "DELETE" ] in
  let* path =
    oneofl
      [ "/"; "/healthz"; "/v1/facts?query=demo&limit=3"; "/a%20b?x=1+2";
        "/metrics" ]
  in
  let* hdrs =
    list_size (int_range 0 3)
      (pair (oneofl [ "x-a"; "x-b"; "accept" ]) (oneofl [ "1"; "foo bar"; "z" ]))
  in
  let* version = oneofl [ "HTTP/1.1"; "HTTP/1.0" ] in
  let* body = oneofl [ ""; "hi"; "{\"query\":\"demo\"}"; String.make 33 'b' ] in
  let lines =
    ((meth ^ " " ^ path ^ " " ^ version)
     :: List.map (fun (k, v) -> k ^ ": " ^ v) hdrs)
    @
    if body = "" then []
    else [ Printf.sprintf "content-length: %d" (String.length body) ]
  in
  return (String.concat "\r\n" lines ^ "\r\n\r\n" ^ body)

(* Corruptions of a valid request: truncation, garbage, joined words,
   pipelined trailers — everything the parser must classify, not
   crash on. *)
let gen_corrupted =
  let open QCheck.Gen in
  let* s = gen_valid_request in
  let* f =
    oneofl
      [ (fun s -> "\r\n" ^ s);
        (fun s -> String.map (fun c -> if c = '/' then ' ' else c) s);
        (fun s -> String.sub s 0 (String.length s / 2));
        (fun s -> s ^ "trailing garbage after the request");
        (fun s -> "FOO BAR BAZ QUX\r\n\r\n" ^ s);
        (fun s -> String.concat "" (String.split_on_char 'T' s));
        (fun s -> String.map (fun c -> if c = ':' then ';' else c) s) ]
  in
  return (f s)

let gen_random_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 120))

let gen_stream =
  QCheck.Gen.frequency
    [ (4, gen_valid_request); (3, gen_corrupted); (2, gen_random_bytes) ]

let arb_chunked_stream =
  let open QCheck.Gen in
  let gen =
    let* s = gen_stream in
    let* cuts = list_size (int_range 0 5) (int_range 0 (String.length s)) in
    return (s, cuts)
  in
  QCheck.make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "%S cut at %s" s
        (String.concat "," (List.map string_of_int cuts)))
    gen

let chunks_of s cuts =
  let cuts =
    List.sort_uniq compare
      (List.filter (fun i -> i > 0 && i < String.length s) cuts)
  in
  if s = "" then []
  else
    let rec go start = function
      | [] -> [ String.sub s start (String.length s - start) ]
      | c :: rest -> String.sub s start (c - start) :: go c rest
    in
    go 0 cuts

let fuzz_split_invariance =
  qtest ~count:300 "fuzz: outcome is split-invariant, terminal, 4xx-or-request"
    arb_chunked_stream (fun (s, cuts) ->
      let outcome chunks =
        try snd (parse_stream chunks)
        with e ->
          QCheck.Test.fail_reportf "parser raised %s on %S"
            (Printexc.to_string e) s
      in
      let whole = outcome [ s ] in
      let split = outcome (chunks_of s cuts) in
      if whole <> split then
        QCheck.Test.fail_reportf "split changed the outcome on %S" s;
      match whole with
      | Http.Incomplete ->
        QCheck.Test.fail_reportf "non-terminal outcome after eof on %S" s
      | Http.Request _ -> true
      | Http.Reject (c, _) ->
        if c >= 400 && c < 500 then true
        else QCheck.Test.fail_reportf "non-4xx reject %d on %S" c s)

let fuzz_header_cap_exact =
  qtest ~count:200 "fuzz: header cap is exact at every boundary"
    QCheck.(pair (int_range 40 160) (int_range 0 200))
    (fun (cap, pad) ->
      let limits = { Limits.default with Limits.max_header_bytes = cap } in
      let req = header_request (String.make pad 'a') in
      match snd (parse_stream ~limits [ req ]) with
      | Http.Request _ -> String.length req <= cap
      | Http.Reject (400, _) -> String.length req > cap
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Tiny_json: serializer round-trip                                    *)

let gen_jstring =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 20))

let gen_finite_float =
  QCheck.Gen.(
    frequency
      [ (4, float_range (-1e15) 1e15);
        (1,
         oneofl
           [ 0.; -0.; 1.5; -3.25; 0.1; 1e-9; 1e300; -1e300; 4611686018427387904. ])
      ])

let gen_json =
  let open QCheck.Gen in
  let scalar =
    frequency
      [ (1, return J.Null);
        (2, map (fun b -> J.Bool b) bool);
        (3, map (fun i -> J.Int i) gen_small_int);
        (3, map (fun f -> J.Float f) gen_finite_float);
        (4, map (fun s -> J.Str s) gen_jstring) ]
  in
  let rec go d =
    if d = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun l -> J.List l) (list_size (int_range 0 4) (go (d - 1))));
          (1,
           map
             (fun kvs -> J.Obj kvs)
             (list_size (int_range 0 4) (pair gen_jstring (go (d - 1))))) ]
  in
  go 3

let json_roundtrip =
  qtest ~count:500 "parse (to_string v) = v (control chars, non-ASCII)"
    (QCheck.make ~print:J.to_string gen_json)
    (fun v ->
      match J.parse_opt (J.to_string v) with
      | Some v' when v' = v -> true
      | Some v' ->
        QCheck.Test.fail_reportf "round-trip drift: %s -> %s" (J.to_string v)
          (J.to_string v')
      | None ->
        QCheck.Test.fail_reportf "serializer emitted unparseable %s"
          (J.to_string v))

let json_rat_huge_factorial () =
  (* End-to-end regression for Rat.to_float: with numerator and denominator
     both past float range the old code computed inf /. inf = nan, which
     the serializer renders as null — chart consumers saw no value for a
     perfectly finite Shapley ratio. *)
  let f200 = Combi.factorial 200 in
  let x = Rat.make (Bigint.add f200 Bigint.one) f200 in
  let rendered = J.to_string (Json_codec.rat x) in
  match J.member "float" (J.parse rendered) with
  | Some (J.Float f) ->
    Alcotest.(check bool) "finite" true (Float.is_finite f);
    Alcotest.(check (float 1e-9)) "~1" 1.0 f
  | Some J.Null -> Alcotest.failf "float field rendered null: %s" rendered
  | _ -> Alcotest.failf "unexpected float field in %s" rendered

let json_escaping_goldens () =
  Alcotest.(check string) "named + unicode escapes"
    {|"a\"b\\c\nd\u0001"|}
    (J.to_string (J.Str "a\"b\\c\nd\x01"));
  Alcotest.(check string) "non-ASCII passes through raw" "\"caf\xc3\xa9\""
    (J.to_string (J.Str "caf\xc3\xa9"));
  Alcotest.(check string) "integral float keeps its point" "1.0"
    (J.to_string (J.Float 1.));
  Alcotest.(check string) "non-finite floats print null" "[null,null,null]"
    (J.to_string (J.List [ J.Float infinity; J.Float neg_infinity; J.Float nan ]));
  Alcotest.(check string) "escaped object key" {|{"\t":1}|}
    (J.to_string (J.Obj [ ("\t", J.Int 1) ]))

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let router_fixture () =
  [ Router.route Http.GET "/ok" (fun _ ->
        { Router.status = 200; headers = []; body = [ "ok" ] });
    Router.route Http.POST "/ok" (fun _ ->
        { Router.status = 200; headers = []; body = [ "posted" ] });
    Router.route Http.GET "/boom" (fun _ -> failwith "handler exploded") ]

let router_dispatch () =
  let routes = router_fixture () in
  let label, r =
    Router.dispatch routes (req_of_string "GET /ok HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check string) "label is the path" "/ok" label;
  Alcotest.(check int) "200" 200 (status r);
  let label, r =
    Router.dispatch routes (req_of_string "GET /nope HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check string) "unmatched label" "unmatched" label;
  Alcotest.(check int) "404" 404 (status r);
  let _, r =
    Router.dispatch routes (req_of_string "DELETE /ok HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check int) "405" 405 (status r);
  let allow =
    Option.value ~default:"" (List.assoc_opt "Allow" r.Router.headers)
  in
  Alcotest.(check bool) "Allow lists GET and POST" true
    (allow = "GET, POST" || allow = "POST, GET");
  let _, r =
    Router.dispatch routes (req_of_string "GET /boom HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check int) "handler exception becomes 500" 500 (status r);
  (* ...and the body is well-formed JSON, not the exception text *)
  let code = int_exn (member_exn "code" (member_exn "error" (json_of r))) in
  Alcotest.(check int) "error body code" 500 code

(* ------------------------------------------------------------------ *)
(* API handlers (direct dispatch)                                      *)

let api_healthz_queries () =
  let routes = Api.routes (demo_api ()) in
  let r = get routes "/healthz" in
  Alcotest.(check int) "healthz 200" 200 (status r);
  let j = json_of r in
  Alcotest.(check string) "status ok" "ok" (str_exn (member_exn "status" j));
  Alcotest.(check int) "one query" 1 (int_exn (member_exn "queries" j));
  let j = json_of (get routes "/v1/queries") in
  match list_exn (member_exn "queries" j) with
  | [ q ] ->
    Alcotest.(check string) "name" "demo" (str_exn (member_exn "name" q));
    Alcotest.(check string) "classification" "hierarchical"
      (str_exn (member_exn "classification" q));
    Alcotest.(check int) "fact count" 4 (int_exn (member_exn "facts" q))
  | l -> Alcotest.failf "expected one query, got %d" (List.length l)

let api_facts_errors () =
  let routes = Api.routes (demo_api ()) in
  Alcotest.(check int) "missing query param" 400
    (status (get routes "/v1/facts"));
  Alcotest.(check int) "unknown query" 404
    (status (get routes "/v1/facts?query=nope"));
  Alcotest.(check int) "malformed cursor" 400
    (status (get routes "/v1/facts?query=demo&cursor=zzz"));
  Alcotest.(check int) "zero limit" 400
    (status (get routes "/v1/facts?query=demo&limit=0"));
  Alcotest.(check int) "malformed limit" 400
    (status (get routes "/v1/facts?query=demo&limit=ten"));
  Alcotest.(check int) "limit above max clamps, not errors" 200
    (status (get routes "/v1/facts?query=demo&limit=999999"))

let api_facts_pages () =
  let routes = Api.routes (demo_api ()) in
  let j = json_of (get routes "/v1/facts?query=demo") in
  Alcotest.(check int) "total" 4 (int_exn (member_exn "total" j));
  let ids =
    List.map (fun f -> int_exn (member_exn "id" f))
      (list_exn (member_exn "facts" j))
  in
  Alcotest.(check (list int)) "all facts, ascending" [ 1; 2; 3; 4 ] ids;
  Alcotest.(check bool) "no next_cursor on full page" true
    (J.member "next_cursor" j = None);
  (* limit=3 then follow the cursor *)
  let j = json_of (get routes "/v1/facts?query=demo&limit=3") in
  let ids =
    List.map (fun f -> int_exn (member_exn "id" f))
      (list_exn (member_exn "facts" j))
  in
  Alcotest.(check (list int)) "first page" [ 1; 2; 3 ] ids;
  let c = str_exn (member_exn "next_cursor" j) in
  Alcotest.(check string) "cursor encodes the last returned fact"
    (Api.cursor_of_fact 3) c;
  let j = json_of (get routes ("/v1/facts?query=demo&cursor=" ^ c)) in
  let ids =
    List.map (fun f -> int_exn (member_exn "id" f))
      (list_exn (member_exn "facts" j))
  in
  Alcotest.(check (list int)) "second page" [ 4 ] ids;
  Alcotest.(check bool) "last page has no cursor" true
    (J.member "next_cursor" j = None)

let api_golden_last_page_and_empty () =
  let routes = Api.routes (demo_api ()) in
  (* cursor pointing at the very last fact: an empty page, no cursor *)
  let j =
    json_of
      (get routes ("/v1/facts?query=demo&cursor=" ^ Api.cursor_of_fact 4))
  in
  Alcotest.(check bool) "past-the-end page is empty" true
    (list_exn (member_exn "facts" j) = []);
  Alcotest.(check bool) "past-the-end has no cursor" true
    (J.member "next_cursor" j = None);
  (* a query whose facts are all exogenous: zero players *)
  let routes = Api.routes (empty_api ()) in
  let j = json_of (get routes "/v1/facts?query=empty") in
  Alcotest.(check int) "empty total" 0 (int_exn (member_exn "total" j));
  Alcotest.(check bool) "empty facts" true
    (list_exn (member_exn "facts" j) = []);
  Alcotest.(check bool) "empty has no cursor" true
    (J.member "next_cursor" j = None);
  let r = post routes "/v1/shapley/all" {|{"query":"empty"}|} in
  Alcotest.(check int) "shapley/all on empty query is 200" 200 (status r);
  Alcotest.(check bool) "no values" true
    (list_exn (member_exn "values" (json_of r)) = [])

let api_shapley_bit_identical () =
  let api = demo_api () in
  let routes = Api.routes api in
  let r = post routes "/v1/shapley" {|{"query":"demo","fact":1}|} in
  Alcotest.(check int) "shapley 200" 200 (status r);
  let j = json_of r in
  let sh = member_exn "shapley" j in
  Alcotest.(check string) "num" "1" (str_exn (member_exn "num" sh));
  Alcotest.(check string) "den" "4" (str_exn (member_exn "den" sh));
  Alcotest.(check string) "solver" "safe-plan-circuit"
    (str_exn (member_exn "solver" j));
  Alcotest.(check string) "relation" "R1" (str_exn (member_exn "relation" j));
  (* every fact, against a fresh direct [Dichotomy.shapley] run on an
     independently built copy of the database *)
  let served =
    List.sort compare
      (triples_of_values
         (json_of (post routes "/v1/shapley/all" {|{"query":"demo"}|})))
  in
  let expected = reference_triples (example13_db ()) (demo_query ()) in
  Alcotest.(check (list (triple int string string)))
    "serve == solver, exact strings" expected served

let api_shapley_errors () =
  let routes = Api.routes (demo_api ()) in
  Alcotest.(check int) "bad JSON body" 400
    (status (post routes "/v1/shapley" "not json"));
  Alcotest.(check int) "missing fact field" 400
    (status (post routes "/v1/shapley" {|{"query":"demo"}|}));
  Alcotest.(check int) "unknown query" 404
    (status (post routes "/v1/shapley" {|{"query":"zzz","fact":1}|}));
  Alcotest.(check int) "unknown fact" 404
    (status (post routes "/v1/shapley" {|{"query":"demo","fact":99}|}));
  Alcotest.(check int) "malformed cursor in shapley/all" 400
    (status (post routes "/v1/shapley/all" {|{"query":"demo","cursor":"x"}|}));
  Alcotest.(check int) "wrong field type" 400
    (status (post routes "/v1/shapley" {|{"query":"demo","fact":"one"}|}))

(* ------------------------------------------------------------------ *)
(* Byte-identity oracle: the Shapley responses rendered as whole
   [Tiny_json] trees — [oracle_shap_json] per fact plus
   [Json_codec.json_response] — over the fresh solver's values.  The
   routes concatenate elements rendered on the cache fill instead; every
   response must equal this oracle's byte for byte, on the cold
   dispatch (the fill) and the warm one (a hit). *)

let oracle_solver = function
  | Dichotomy.Safe_plan_circuit -> "safe-plan-circuit"
  | Dichotomy.Compiled_dnf -> "compiled-dnf"

let oracle_shap_json values (id, rel, tuple) =
  match List.assoc_opt id values with
  | None -> None
  | Some v ->
    Some
      (J.Obj
         [ ("fact", J.Int id);
           ("relation", J.Str rel);
           ("tuple", Json_codec.tuple tuple);
           ("shapley", Json_codec.rat v) ])

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let oracle_page ?cursor ?limit (e : Api.entry) =
  let values, solver = Dichotomy.shapley e.Api.db e.Api.query in
  let after =
    match cursor with
    | None -> -1
    | Some c -> Option.get (Api.fact_of_cursor c)
  in
  let rest =
    List.filter (fun (id, _, _) -> id > after) (Array.to_list e.Api.facts)
  in
  let limit = Option.value ~default:Api.default_limit limit in
  let page = take (min Api.max_limit limit) rest in
  let next =
    match List.rev page with
    | (id, _, _) :: _ when List.length page < List.length rest ->
      [ ("next_cursor", J.Str (Api.cursor_of_fact id)) ]
    | _ -> []
  in
  Json_codec.json_response
    (J.Obj
       ([ ("query", J.Str e.Api.name);
          ("total", J.Int (Array.length e.Api.facts));
          ("solver", J.Str (oracle_solver solver));
          ("values", J.List (List.filter_map (oracle_shap_json values) page)) ]
       @ next))

let oracle_fact id (e : Api.entry) =
  match Array.find_opt (fun (i, _, _) -> i = id) e.Api.facts with
  | None ->
    Json_codec.error 404
      (Printf.sprintf "query %s has no fact %d" e.Api.name id)
  | Some (_, rel, tuple) ->
    let values, solver = Dichotomy.shapley e.Api.db e.Api.query in
    Json_codec.json_response
      (J.Obj
         [ ("query", J.Str e.Api.name);
           ("fact", J.Int id);
           ("relation", J.Str rel);
           ("tuple", Json_codec.tuple tuple);
           ("solver", J.Str (oracle_solver solver));
           ("shapley", Json_codec.rat (List.assoc id values)) ])

(* Tuple strings that need escaping: a quote, a backslash, control
   characters; and a query name that does too. *)
let escape_name = "esc\"\\\001"

let escape_db () =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:2;
  List.iter
    (fun (s, i) ->
      ignore (Database.insert db "R" [| Value.str s; Value.int i |]))
    [ ("quote\"d", 1); ("back\\slash", 2); ("ctl\001\n\t", 3); ("plain", 4) ];
  db

let oracle_pairs () =
  [ ("demo", (example13_db (), demo_query ()));
    ("page", (page_db 7, Db_parser.parse_query "R(x)"));
    ("q0", random_q0_db ~a:3 ~b:3 ~density:0.6 ~seed:11);
    (escape_name, (escape_db (), Db_parser.parse_query "R(x, y)")) ]

let response =
  Alcotest.testable
    (fun ppf (r : Router.response) ->
      Format.fprintf ppf "%d [%s] %S" r.Router.status
        (String.concat "; "
           (List.map (fun (k, v) -> k ^ ": " ^ v) r.Router.headers))
        (body_of r))
    (fun a b ->
      a.Router.status = b.Router.status
      && a.Router.headers = b.Router.headers
      && String.equal (body_of a) (body_of b))

let api_pages_match_the_tree_renderer () =
  let page_body ?cursor ?limit name =
    J.to_string
      (J.Obj
         (("query", J.Str name)
          :: (match cursor with
              | Some c -> [ ("cursor", J.Str c) ]
              | None -> [])
          @ match limit with Some l -> [ ("limit", J.Int l) ] | None -> []))
  in
  let fact_body name id =
    J.to_string (J.Obj [ ("query", J.Str name); ("fact", J.Int id) ])
  in
  let c = Api.cursor_of_fact in
  let page ?cursor ?limit name what =
    ( what,
      "/v1/shapley/all",
      page_body ?cursor ?limit name,
      Some name,
      oracle_page ?cursor ?limit )
  and fact name id what =
    ("/v1/shapley " ^ what, "/v1/shapley", fact_body name id, Some name,
     oracle_fact id)
  and unknown path =
    ( path ^ " unknown query",
      path,
      (if path = "/v1/shapley" then fact_body "nope" 1 else page_body "nope"),
      None,
      fun _ -> Json_codec.error 404 "no such query: nope" )
  in
  let cases =
    List.concat_map
      (fun name ->
        [ page name "default page";
          fact name 1 "first fact";
          fact name 4 "fact 4";
          fact name 99 "missing fact" ])
      [ "demo"; "page"; escape_name ]
    @ [ page "q0" "compiled-dnf page";
        page ~limit:3 "page" "limit 3: a page with next_cursor";
        page ~cursor:(c 3) ~limit:3 "page" "cursor, then next_cursor";
        page ~cursor:(c 4) ~limit:3 "page" "last page, no next_cursor";
        page ~cursor:(c 6) ~limit:3 "page" "short last page";
        page ~cursor:(c 7) "page" "past the end: empty";
        page ~limit:2 escape_name "escaped page with next_cursor";
        page ~cursor:(c 2) escape_name "escaped last page";
        fact "page" 7 "last fact";
        unknown "/v1/shapley/all";
        unknown "/v1/shapley" ]
  in
  List.iter
    (fun (what, path, body, name, oracle) ->
      (* a fresh Api per case: the first dispatch fills, the second hits *)
      let api = Api.of_pairs (oracle_pairs ()) in
      let routes = Api.routes api in
      let expected =
        oracle
          (match name with
           | Some n -> Option.get (Api.find api n)
           | None -> List.hd (Api.entries api))
      in
      let check phase =
        Alcotest.check response (what ^ phase) expected (post routes path body)
      in
      check " (cold)";
      check " (warm)")
    cases

let api_shapley_all_own_entries () =
  let a = demo_api () and b = demo_api () in
  Alcotest.check_raises "an entry of another Api.t"
    (Invalid_argument "Api.shapley_all: unknown entry demo") (fun () ->
      ignore (Api.shapley_all a (Option.get (Api.find b "demo"))));
  let answer, _ = Api.shapley_all a (Option.get (Api.find a "demo")) in
  check_shap "its own entry"
    (fst (Dichotomy.shapley (example13_db ()) (demo_query ())))
    (Cache.bindings answer)

let float_exn j = Option.get (J.to_float j)
let bool_exn j = Option.get (J.to_bool j)

let api_shapley_approx () =
  let routes = Api.routes (demo_api ()) in
  let body = {|{"query":"demo","eps":0.1,"delta":0.1,"seed":3}|} in
  let r = post routes "/v1/shapley/approx" body in
  Alcotest.(check int) "approx 200" 200 (status r);
  let j = json_of r in
  Alcotest.(check string) "default estimator" "truncated"
    (str_exn (member_exn "estimator" j));
  Alcotest.(check string) "default ci" "bernstein"
    (str_exn (member_exn "ci" j));
  let samples = int_exn (member_exn "samples" j) in
  Alcotest.(check bool) "spent samples" true (samples > 0);
  Alcotest.(check bool) "within the Hoeffding budget" true
    (samples <= Sampling.samples_for ~eps:0.1 ~delta:0.1);
  Alcotest.(check bool) "converged at eps=0.1" true
    (bool_exn (member_exn "converged" j));
  Alcotest.(check bool) "certified width at most eps" true
    (float_exn (member_exn "max_half_width" j) <= 0.1);
  let values = list_exn (member_exn "values" j) in
  Alcotest.(check int) "one entry per fact" 4 (List.length values);
  (* the demo query's exact Shapley value is 1/4 for every fact *)
  List.iter
    (fun v ->
      let value = float_exn (member_exn "value" v)
      and hw = float_exn (member_exn "half_width" v) in
      Alcotest.(check bool)
        (Printf.sprintf "fact %d in CI" (int_exn (member_exn "fact" v)))
        true
        (Float.abs (value -. 0.25) <= hw);
      ignore (str_exn (member_exn "relation" v)))
    values;
  (* equal request, equal answer: the estimator replays byte-identically *)
  let r' = post routes "/v1/shapley/approx" body in
  Alcotest.(check string) "deterministic body" (body_of r) (body_of r');
  (* a different seed must change the sampled answer *)
  let rs =
    post routes "/v1/shapley/approx"
      {|{"query":"demo","eps":0.1,"delta":0.1,"seed":4}|}
  in
  Alcotest.(check bool) "seed varies the run" true
    (body_of rs <> body_of r)

let api_shapley_approx_scoped () =
  (* the convergence checkpoints of an approx run land in the request
     scope, hence in the profiles served at /v1/debug/requests/:id *)
  let routes = Api.routes (demo_api ()) in
  let sc = Trace.create ~req:"approx-test" () in
  let r =
    Obs.with_request sc (fun () ->
        post routes "/v1/shapley/approx"
          {|{"query":"demo","eps":0.1,"delta":0.1,"interval":512}|})
  in
  Alcotest.(check int) "approx 200" 200 (status r);
  let checkpoints =
    List.filter
      (fun (e : Trace.event) ->
        e.kind = Trace.Phase && e.name = "estimator.checkpoint")
      (Trace.events sc)
  in
  Alcotest.(check bool) "scope saw checkpoint events" true
    (List.length checkpoints >= 1)

let api_shapley_approx_errors () =
  let routes = Api.routes (demo_api ()) in
  let bad body = status (post routes "/v1/shapley/approx" body) in
  List.iter
    (fun name ->
      Alcotest.(check int) ("unknown estimator " ^ name) 400
        (bad (Printf.sprintf {|{"query":"demo","estimator":"%s"}|} name)))
    [ "bogus"; "permutation"; "stratified" ];
  Alcotest.(check int) "unknown ci" 400 (bad {|{"query":"demo","ci":"bogus"}|});
  Alcotest.(check int) "eps 0" 400 (bad {|{"query":"demo","eps":0}|});
  Alcotest.(check int) "delta 2" 400 (bad {|{"query":"demo","delta":2}|});
  Alcotest.(check int) "max_samples 0" 400
    (bad {|{"query":"demo","max_samples":0}|});
  Alcotest.(check int) "eps of wrong type" 400
    (bad {|{"query":"demo","eps":"small"}|});
  Alcotest.(check int) "unknown query" 404 (bad {|{"query":"zzz"}|});
  let routes = Api.routes (empty_api ()) in
  Alcotest.(check int) "zero players is 400" 400
    (status (post routes "/v1/shapley/approx" {|{"query":"empty"}|}))

let cursor_codec () =
  List.iter
    (fun id ->
      Alcotest.(check (option int))
        (Printf.sprintf "cursor round-trip %d" id)
        (Some id)
        (Api.fact_of_cursor (Api.cursor_of_fact id)))
    [ 0; 1; 42; 999_999_999 ];
  List.iter
    (fun s ->
      Alcotest.(check (option int)) ("bad cursor " ^ s) None
        (Api.fact_of_cursor s))
    [ ""; "f"; "f12"; "g000000000001"; "f00000000000x"; "f0000000000001" ];
  (* token order IS fact order — what makes the cursor resumable *)
  Alcotest.(check bool) "lexicographic = numeric" true
    (compare (Api.cursor_of_fact 9) (Api.cursor_of_fact 10) < 0)

(* ------------------------------------------------------------------ *)
(* Pagination property: random page sizes enumerate every fact exactly
   once, and concatenation equals the single-shot answer.              *)

let walk_pages ~fetch ~extract =
  let rec go cursor acc steps =
    if steps > 200 then Alcotest.fail "pagination did not terminate"
    else
      let j = fetch ~cursor ~steps in
      let acc = acc @ extract j in
      match J.member "next_cursor" j with
      | Some (J.Str c) -> go (Some c) acc (steps + 1)
      | Some _ -> Alcotest.fail "next_cursor is not a string"
      | None -> acc
  in
  go None [] 0

let facts_pagination_property =
  let n = 23 in
  let routes = Api.routes (page_api n) in
  let single_shot =
    List.map (fun f -> int_exn (member_exn "id" f))
      (list_exn
         (member_exn "facts"
            (json_of (get routes "/v1/facts?query=page&limit=1000"))))
  in
  qtest ~count:30 "facts pagination: random page sizes enumerate exactly once"
    QCheck.(list_of_size (QCheck.Gen.return 50) (int_range 1 7))
    (fun limits_seq ->
      let limit_at i =
        match List.nth_opt limits_seq i with Some l -> l | None -> 3
      in
      let walked =
        walk_pages
          ~fetch:(fun ~cursor ~steps ->
            let path =
              Printf.sprintf "/v1/facts?query=page&limit=%d%s" (limit_at steps)
                (match cursor with None -> "" | Some c -> "&cursor=" ^ c)
            in
            let r = get routes path in
            if status r <> 200 then
              QCheck.Test.fail_reportf "page fetch failed: %d %s" (status r)
                (body_of r);
            json_of r)
          ~extract:(fun j ->
            List.map (fun f -> int_exn (member_exn "id" f))
              (list_exn (member_exn "facts" j)))
      in
      if walked <> single_shot then
        QCheck.Test.fail_reportf "walk [%s] <> single shot [%s]"
          (String.concat ";" (List.map string_of_int walked))
          (String.concat ";" (List.map string_of_int single_shot))
      else true)

let shapley_all_pagination_property =
  let n = 17 in
  let api = page_api n in
  let routes = Api.routes api in
  let reference = reference_triples (page_db n) (Db_parser.parse_query "R(x)") in
  qtest ~count:15 "shapley/all pagination: concatenation = solver output"
    QCheck.(list_of_size (QCheck.Gen.return 40) (int_range 1 5))
    (fun limits_seq ->
      let limit_at i =
        match List.nth_opt limits_seq i with Some l -> l | None -> 2
      in
      let walked =
        walk_pages
          ~fetch:(fun ~cursor ~steps ->
            let body =
              J.to_string
                (J.Obj
                   ([ ("query", J.Str "page");
                      ("limit", J.Int (limit_at steps)) ]
                   @
                   match cursor with
                   | Some c -> [ ("cursor", J.Str c) ]
                   | None -> []))
            in
            let r = post routes "/v1/shapley/all" body in
            if status r <> 200 then
              QCheck.Test.fail_reportf "page fetch failed: %d %s" (status r)
                (body_of r);
            json_of r)
          ~extract:triples_of_values
      in
      List.sort compare walked = reference)

(* ------------------------------------------------------------------ *)
(* A tiny blocking HTTP client for the socket-level tests.             *)

module Client = struct
  type conn = { fd : Unix.file_descr; mutable buf : string }

  exception Closed

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    { fd; buf = "" }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let send_raw c s =
    let b = Bytes.of_string s in
    let rec go off =
      if off < Bytes.length b then
        go (off + Unix.write c.fd b off (Bytes.length b - off))
    in
    go 0

  let refill c =
    let b = Bytes.create 4096 in
    match Unix.read c.fd b 0 4096 with
    | 0 -> raise Closed
    | k -> c.buf <- c.buf ^ Bytes.sub_string b 0 k

  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0

  (* Read one full response: status, lowercased headers, body (sized by
     Content-Length).  Extra buffered bytes stay for the next call. *)
  let read_response c =
    let rec header_end () =
      match find_sub c.buf "\r\n\r\n" with
      | Some i -> i
      | None ->
        refill c;
        header_end ()
    in
    let he = header_end () in
    let head = String.sub c.buf 0 he in
    let lines =
      String.split_on_char '\n' head
      |> List.map (fun l ->
             if l <> "" && l.[String.length l - 1] = '\r' then
               String.sub l 0 (String.length l - 1)
             else l)
    in
    let status_line, header_lines =
      match lines with
      | s :: rest -> (s, rest)
      | [] -> Alcotest.fail "empty response"
    in
    let status =
      match String.split_on_char ' ' status_line with
      | _ :: code :: _ -> int_of_string code
      | _ -> Alcotest.failf "bad status line %S" status_line
    in
    let headers =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | None -> None
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim
                  (String.sub l (i + 1) (String.length l - i - 1)) ))
        header_lines
    in
    let clen =
      match List.assoc_opt "content-length" headers with
      | Some v -> int_of_string v
      | None -> Alcotest.fail "response without Content-Length"
    in
    let body_start = he + 4 in
    while String.length c.buf < body_start + clen do
      refill c
    done;
    let body = String.sub c.buf body_start clen in
    c.buf <-
      String.sub c.buf (body_start + clen)
        (String.length c.buf - body_start - clen);
    (status, headers, body)

  let request c ?(headers = []) ?(body = "") meth path =
    let extra =
      String.concat ""
        (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers)
    in
    send_raw c
      (Printf.sprintf "%s %s HTTP/1.1\r\ncontent-length: %d\r\n%s\r\n%s" meth
         path (String.length body) extra body);
    read_response c

  (* one-shot convenience *)
  let oneshot port ?headers ?body meth path =
    let c = connect port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () -> request c ?headers ?body meth path)
end

let with_server ?(jobs = 1) ?(limits = Limits.default) ?(port = 0)
    ?(debug_requests = Server.default_config.Server.debug_requests)
    ?access_log routes f =
  let config =
    { Server.default_config with
      Server.port;
      Server.jobs;
      Server.limits;
      Server.drain_deadline = 5.;
      Server.debug_requests;
      Server.access_log }
  in
  let srv = Server.create ~config routes in
  Server.start srv;
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () -> f srv (Server.port srv))

(* ------------------------------------------------------------------ *)
(* Socket-level server tests                                           *)

let server_routing_over_socket () =
  with_server (Api.routes (demo_api ())) (fun srv port ->
      let st, _, body = Client.oneshot port "GET" "/healthz" in
      Alcotest.(check int) "healthz" 200 st;
      Alcotest.(check string) "healthz body" "ok"
        (str_exn (member_exn "status" (J.parse body)));
      let st, _, _ = Client.oneshot port "GET" "/nope" in
      Alcotest.(check int) "404 over the wire" 404 st;
      let st, hdrs, _ = Client.oneshot port "POST" "/healthz" in
      Alcotest.(check int) "405 over the wire" 405 st;
      Alcotest.(check bool) "Allow header present" true
        (List.mem_assoc "allow" hdrs);
      let st, _, body =
        Client.oneshot port "POST" "/v1/shapley"
          ~body:{|{"query":"demo","fact":1}|}
      in
      Alcotest.(check int) "shapley over the wire" 200 st;
      let sh = member_exn "shapley" (J.parse body) in
      Alcotest.(check string) "num over the wire" "1"
        (str_exn (member_exn "num" sh));
      Alcotest.(check string) "den over the wire" "4"
        (str_exn (member_exn "den" sh));
      (* the counter bumps after the response bytes go out — poll
         briefly rather than racing the worker *)
      let deadline = Unix.gettimeofday () +. 2. in
      while
        Server.requests_served srv < 4 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      Alcotest.(check bool) "served counter advanced" true
        (Server.requests_served srv >= 4))

let server_keep_alive_and_conn_cap () =
  let limits = { Limits.default with Limits.max_conn_requests = 2 } in
  with_server ~limits (Api.routes (demo_api ())) (fun _ port ->
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let st, hdrs, _ = Client.request c "GET" "/healthz" in
          Alcotest.(check int) "first 200" 200 st;
          Alcotest.(check (option string)) "first is keep-alive"
            (Some "keep-alive")
            (List.assoc_opt "connection" hdrs);
          let st, hdrs, _ = Client.request c "GET" "/healthz" in
          Alcotest.(check int) "second 200" 200 st;
          Alcotest.(check (option string))
            "connection cap closes after request 2" (Some "close")
            (List.assoc_opt "connection" hdrs)))

let server_limits_on_the_wire () =
  let limits =
    { Limits.default with
      Limits.max_header_bytes = 256;
      Limits.max_body_bytes = 128 }
  in
  with_server ~limits (Api.routes (demo_api ())) (fun _ port ->
      (* headers exactly at the cap pass *)
      let base = "GET /healthz HTTP/1.1\r\ncontent-length: 0\r\nx-pad: \r\n\r\n" in
      let pad n = String.make n 'a' in
      let send_padded n =
        let c = Client.connect port in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.send_raw c
              (Printf.sprintf
                 "GET /healthz HTTP/1.1\r\ncontent-length: 0\r\nx-pad: %s\r\n\r\n"
                 (pad n));
            let st, _, _ = Client.read_response c in
            st)
      in
      let at_cap = 256 - String.length base in
      Alcotest.(check int) "header at cap is served" 200 (send_padded at_cap);
      Alcotest.(check int) "header past cap answers 400" 400
        (send_padded (at_cap + 1));
      (* body at the cap reaches the handler (bad JSON → 400), one past
         is cut off with 413 before parsing *)
      let st, _, _ =
        Client.oneshot port "POST" "/v1/shapley" ~body:(String.make 128 'x')
      in
      Alcotest.(check int) "body at cap reaches the handler" 400 st;
      let st, _, body =
        Client.oneshot port "POST" "/v1/shapley" ~body:(String.make 129 'x')
      in
      Alcotest.(check int) "body past cap answers 413" 413 st;
      Alcotest.(check int) "413 body carries the code" 413
        (int_exn (member_exn "code" (member_exn "error" (J.parse body))));
      (* malformed request line over the wire *)
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_raw c "THIS IS NOT HTTP\r\n\r\n";
          let st, _, _ = Client.read_response c in
          Alcotest.(check int) "garbage answers 400" 400 st))

let server_mid_request_timeout () =
  let limits = { Limits.default with Limits.read_timeout = 0.3 } in
  with_server ~limits (Api.routes (demo_api ())) (fun _ port ->
      let c = Client.connect port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_raw c "GET /heal";
          (* half a request, then silence *)
          let st, _, _ = Client.read_response c in
          Alcotest.(check int) "mid-request silence answers 408" 408 st))

let server_concurrent_jobs_identical () =
  let expected = reference_triples (example13_db ()) (demo_query ()) in
  let run_at jobs =
    with_server ~jobs (Api.routes (demo_api ())) (fun _ port ->
        let clients = 6 in
        let domains =
          Array.init clients (fun _ ->
              Domain.spawn (fun () ->
                  let c = Client.connect port in
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () ->
                      List.map
                        (fun fact ->
                          let st, _, body =
                            Client.request c "POST" "/v1/shapley"
                              ~body:
                                (Printf.sprintf
                                   {|{"query":"demo","fact":%d}|} fact)
                          in
                          let j = J.parse body in
                          let sh = member_exn "shapley" j in
                          ( st,
                            fact,
                            str_exn (member_exn "num" sh),
                            str_exn (member_exn "den" sh) ))
                        [ 1; 2; 3; 4 ])))
        in
        Array.to_list domains |> List.concat_map Domain.join)
  in
  let check_results jobs results =
    List.iter
      (fun (st, fact, num, den) ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d fact %d status" jobs fact)
          200 st;
        let expect_num, expect_den =
          match List.find_opt (fun (id, _, _) -> id = fact) expected with
          | Some (_, n, d) -> (n, d)
          | None -> Alcotest.failf "no reference value for fact %d" fact
        in
        Alcotest.(check (pair string string))
          (Printf.sprintf "jobs=%d fact %d exact value" jobs fact)
          (expect_num, expect_den) (num, den))
      results
  in
  let r1 = run_at 1 in
  let r4 = run_at 4 in
  check_results 1 r1;
  check_results 4 r4;
  Alcotest.(check bool) "jobs=1 and jobs=4 answer identically" true
    (List.sort compare r1 = List.sort compare r4)

let server_metrics_roundtrip () =
  Metrics.reset ();
  with_server (Api.routes (demo_api ())) (fun _ port ->
      let st, _, _ = Client.oneshot port "GET" "/healthz" in
      Alcotest.(check int) "healthz before scrape" 200 st;
      let st, hdrs, body = Client.oneshot port "GET" "/metrics" in
      Alcotest.(check int) "metrics 200" 200 st;
      (match List.assoc_opt "content-type" hdrs with
       | Some ct ->
         Alcotest.(check bool) "openmetrics content type" true
           (String.length ct >= 16
            && String.sub ct 0 16 = "application/open")
       | None -> Alcotest.fail "metrics response without Content-Type");
      let samples = Metrics.parse_openmetrics body in
      let healthz_hits =
        List.filter
          (fun s ->
            s.Metrics.om_name = "shapmc_http_requests_total"
            && List.assoc_opt "route" s.Metrics.om_labels = Some "/healthz"
            && List.assoc_opt "code" s.Metrics.om_labels = Some "200")
          samples
      in
      (match healthz_hits with
       | [ s ] ->
         Alcotest.(check bool) "healthz counted at least once" true
           (s.Metrics.om_value >= 1.)
       | _ -> Alcotest.fail "expected one http_requests series for /healthz");
      Alcotest.(check bool) "latency histogram scraped back" true
        (List.exists
           (fun s -> s.Metrics.om_name = "shapmc_http_request_seconds_count")
           samples);
      Alcotest.(check bool) "in-flight gauge scraped back" true
        (List.exists
           (fun s -> s.Metrics.om_name = "shapmc_http_in_flight")
           samples))

let server_shutdown_releases_port () =
  let routes = Api.routes (demo_api ()) in
  let first_port =
    with_server routes (fun srv port ->
        let st, _, _ = Client.oneshot port "GET" "/healthz" in
        Alcotest.(check int) "pre-shutdown request" 200 st;
        (* stop is idempotent — double stop must be harmless *)
        Server.stop srv;
        Server.stop srv;
        port)
  in
  (* the first server is fully joined here: rebinding the same port
     immediately must succeed (SO_REUSEADDR beats TIME_WAIT) *)
  with_server ~port:first_port routes (fun _ port ->
      Alcotest.(check int) "rebound the same port" first_port port;
      let st, _, _ = Client.oneshot port "GET" "/healthz" in
      Alcotest.(check int) "restarted server answers" 200 st)

(* ------------------------------------------------------------------ *)
(* Pool.Exec                                                           *)

let exec_runs_everything () =
  let ex = Pool.Exec.create ~jobs:4 in
  Alcotest.(check int) "jobs" 4 (Pool.Exec.jobs ex);
  let hits = Atomic.make 0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "submit accepted" true
      (Pool.Exec.submit ex (fun () -> Atomic.incr hits))
  done;
  Alcotest.(check bool) "drained" true (Pool.Exec.shutdown ex);
  Alcotest.(check int) "every task ran exactly once" 50 (Atomic.get hits);
  Alcotest.(check bool) "submit after shutdown refused" false
    (Pool.Exec.submit ex (fun () -> ()));
  Alcotest.(check int) "nothing pending after drain" 0 (Pool.Exec.pending ex)

let exec_jobs_clamp () =
  let ex = Pool.Exec.create ~jobs:0 in
  Alcotest.(check int) "jobs clamp low" 1 (Pool.Exec.jobs ex);
  ignore (Pool.Exec.shutdown ex)

let exec_deadline_then_drain () =
  let ex = Pool.Exec.create ~jobs:1 in
  let release = Atomic.make false in
  let done_ = Atomic.make false in
  ignore
    (Pool.Exec.submit ex (fun () ->
         while not (Atomic.get release) do
           Domain.cpu_relax ()
         done;
         Atomic.set done_ true));
  Alcotest.(check bool) "deadline expires on a stuck task" false
    (Pool.Exec.shutdown ~deadline:0.05 ex);
  Atomic.set release true;
  Alcotest.(check bool) "second shutdown drains" true (Pool.Exec.shutdown ex);
  Alcotest.(check bool) "the stuck task still completed" true
    (Atomic.get done_)

let exec_task_exception_is_contained () =
  let ex = Pool.Exec.create ~jobs:2 in
  let hits = Atomic.make 0 in
  ignore (Pool.Exec.submit ex (fun () -> failwith "task boom"));
  for _ = 1 to 10 do
    ignore (Pool.Exec.submit ex (fun () -> Atomic.incr hits))
  done;
  Alcotest.(check bool) "drained despite the raising task" true
    (Pool.Exec.shutdown ex);
  Alcotest.(check int) "workers survived the exception" 10 (Atomic.get hits)

let exec_nested_fanout_degrades () =
  let ex = Pool.Exec.create ~jobs:2 in
  let result = Atomic.make [||] in
  ignore
    (Pool.Exec.submit ex (fun () ->
         Atomic.set result (Par.map (fun x -> x * x) [| 1; 2; 3; 4; 5 |])));
  Alcotest.(check bool) "drained" true (Pool.Exec.shutdown ex);
  Alcotest.(check (array int)) "nested Par.map is correct in a worker"
    [| 1; 4; 9; 16; 25 |] (Atomic.get result)

(* ------------------------------------------------------------------ *)
(* Limits validation                                                   *)

let limits_validation () =
  Limits.validate Limits.default;
  let d = Limits.default in
  List.iter
    (fun (limits, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          Limits.validate limits);
      (* the server checks its config on creation *)
      Alcotest.check_raises ("server: " ^ msg) (Invalid_argument msg)
        (fun () ->
          ignore
            (Server.create
               ~config:{ Server.default_config with Server.limits } [])))
    [ ( { d with Limits.max_header_bytes = 0 },
        "--max-header-bytes must be positive, got 0" );
      ( { d with Limits.max_body_bytes = -3 },
        "--max-body-bytes must be positive, got -3" );
      ( { d with Limits.read_timeout = 0. },
        "--read-timeout must be positive, got 0" );
      ( { d with Limits.read_timeout = Float.nan },
        "--read-timeout must be positive, got nan" );
      ( { d with Limits.max_conn_requests = 0 },
        "--max-conn-requests must be positive, got 0" ) ]

(* ------------------------------------------------------------------ *)
(* Request identity                                                    *)

let request_id_traceparent_parse () =
  let tid = "4bf92f3577b34da6a3ce929d0e0e4736" in
  let sid = "00f067aa0ba902b7" in
  Alcotest.(check (option (pair string string)))
    "valid traceparent parses"
    (Some (tid, sid))
    (Request_id.parse_traceparent
       (Printf.sprintf "00-%s-%s-01" tid sid));
  let rejected s =
    Alcotest.(check (option (pair string string)))
      ("rejected: " ^ s) None
      (Request_id.parse_traceparent s)
  in
  rejected "";
  rejected "garbage";
  rejected (Printf.sprintf "ff-%s-%s-01" tid sid);  (* forbidden version *)
  rejected (Printf.sprintf "00-%s-%s-01" (String.uppercase_ascii tid) sid);
  rejected (Printf.sprintf "00-%s-%s-01" (String.make 32 '0') sid);
  rejected (Printf.sprintf "00-%s-%s-01" tid (String.make 16 '0'));
  rejected (Printf.sprintf "00-%s-%s-01" (String.sub tid 0 31) sid);
  rejected (Printf.sprintf "00-%s-%s" tid sid)

let is_hex s =
  String.for_all
    (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
    s

let request_id_generation () =
  let r = Request_id.make () in
  Alcotest.(check int) "fresh trace id is 32 hex" 32
    (String.length (Request_id.trace_id r));
  Alcotest.(check bool) "trace id lowercase hex" true
    (is_hex (Request_id.trace_id r));
  Alcotest.(check int) "span id is 16 hex" 16
    (String.length (Request_id.span_id r));
  Alcotest.(check string) "headerless id equals the trace id"
    (Request_id.trace_id r) (Request_id.id r);
  Alcotest.(check (option string)) "no parent span" None
    (Request_id.parent_span r);
  Alcotest.(check string) "traceparent rendering"
    (Printf.sprintf "00-%s-%s-01" (Request_id.trace_id r)
       (Request_id.span_id r))
    (Request_id.traceparent r);
  let r2 = Request_id.make () in
  Alcotest.(check bool) "fresh ids are distinct" true
    (Request_id.id r <> Request_id.id r2)

let request_id_honors_headers () =
  let tid = "4bf92f3577b34da6a3ce929d0e0e4736" in
  let sid = "00f067aa0ba902b7" in
  let tp = Printf.sprintf "00-%s-%s-01" tid sid in
  let r = Request_id.make ~request_id:"client-7" ~traceparent:tp () in
  Alcotest.(check string) "client id honored" "client-7" (Request_id.id r);
  Alcotest.(check string) "trace id continued" tid (Request_id.trace_id r);
  Alcotest.(check (option string)) "parent span kept" (Some sid)
    (Request_id.parent_span r);
  Alcotest.(check bool) "fresh span id minted" true
    (Request_id.span_id r <> sid);
  (* malformed inputs are replaced, not propagated *)
  Alcotest.(check bool) "bad X-Request-Id rejected" false
    (Request_id.valid_id "spaces are invalid");
  Alcotest.(check bool) "overlong id rejected" false
    (Request_id.valid_id (String.make 65 'a'));
  Alcotest.(check bool) "plain token accepted" true
    (Request_id.valid_id "req_1.a-b");
  let r = Request_id.make ~request_id:"bad id" ~traceparent:"nope" () in
  Alcotest.(check string) "fallback id is the fresh trace id"
    (Request_id.trace_id r) (Request_id.id r);
  (* the request-facing constructor reads the actual headers *)
  let req =
    req_of_string
      (Printf.sprintf
         "GET / HTTP/1.1\r\nX-Request-Id: abc\r\ntraceparent: %s\r\n\r\n" tp)
  in
  let r = Request_id.of_request req in
  Alcotest.(check string) "of_request id" "abc" (Request_id.id r);
  Alcotest.(check string) "of_request trace id" tid (Request_id.trace_id r);
  let hdrs = Request_id.response_headers r in
  Alcotest.(check (option string)) "response echoes the id" (Some "abc")
    (List.assoc_opt "X-Request-Id" hdrs);
  Alcotest.(check (option string)) "response carries a traceparent"
    (Some (Request_id.traceparent r))
    (List.assoc_opt "traceparent" hdrs)

(* ------------------------------------------------------------------ *)
(* Parameterized routes                                                *)

let router_param_matching () =
  Alcotest.(check (option (list (pair string string))))
    "param segment binds"
    (Some [ ("id", "abc-123") ])
    (Router.match_path ~pattern:"/v1/debug/requests/:id"
       "/v1/debug/requests/abc-123");
  Alcotest.(check (option (list (pair string string))))
    "fixed pattern binds nothing" (Some [])
    (Router.match_path ~pattern:"/healthz" "/healthz");
  let no_match pattern path =
    Alcotest.(check (option (list (pair string string))))
      (Printf.sprintf "%s !~ %s" path pattern)
      None
      (Router.match_path ~pattern path)
  in
  no_match "/v1/debug/requests/:id" "/v1/debug/requests";
  no_match "/v1/debug/requests/:id" "/v1/debug/requests/";
  no_match "/v1/debug/requests/:id" "/v1/debug/requests/a/b";
  no_match "/healthz" "/healthz/x"

let router_param_dispatch () =
  let routes =
    [ Router.route Http.GET "/things/special" (fun _ ->
          { Router.status = 200; headers = []; body = [ "fixed" ] });
      Router.route_params Http.GET "/things/:name" (fun params _ ->
          { Router.status = 200;
            headers = [];
            body = [ List.assoc "name" params ] }) ]
  in
  let dispatch path =
    Router.dispatch routes
      (req_of_string (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path))
  in
  let label, r = dispatch "/things/widget" in
  Alcotest.(check int) "param route matches" 200 (status r);
  Alcotest.(check string) "binding reaches the handler" "widget"
    (body_of r);
  Alcotest.(check string) "label is the pattern, not the path"
    "/things/:name" label;
  let _, r = dispatch "/things/special" in
  Alcotest.(check string) "fixed path shadows the param route" "fixed"
    (body_of r);
  let label, r = dispatch "/things" in
  Alcotest.(check int) "missing segment is 404" 404 (status r);
  Alcotest.(check string) "unmatched label" "unmatched" label;
  let _, r =
    Router.dispatch routes
      (req_of_string
         "POST /things/widget HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
  in
  Alcotest.(check int) "wrong method on a param route is 405" 405 (status r);
  Alcotest.(check bool) "405 advertises Allow" true
    (List.mem_assoc "Allow" r.Router.headers)

(* ------------------------------------------------------------------ *)
(* Telemetry: profiles, access log, SLO windows, tail                  *)

let fake_event ~seq ~req name =
  { Trace.seq;
    at = 0.001 *. float_of_int seq;
    depth = 0;
    kind = Trace.Oracle;
    name;
    dur = Some 0.002;
    attrs = [ ("req", Trace.Str req); ("n", Trace.Int seq) ] }

let fake_profile ?(events = []) ?(status = 200) ?(wall = 0.01) ~id ~route () =
  { Telemetry.p_id = id;
    p_trace_id = String.make 32 'a';
    p_route = route;
    p_meth = "GET";
    p_path = route;
    p_status = status;
    p_start = 1000.;
    p_wall_seconds = wall;
    p_queue_seconds = 0.001;
    p_oracle_calls = List.length events;
    p_oracle_seconds = 0.002 *. float_of_int (List.length events);
    p_bytes = 42;
    p_jobs = 1;
    p_events = events;
    p_events_dropped = 0 }

let telemetry_ring_and_lookup () =
  let tel = Telemetry.create ~ring:3 () in
  for i = 1 to 5 do
    Telemetry.record ~now:(float_of_int i) tel
      (fake_profile ~id:(Printf.sprintf "r%d" i) ~route:"/x" ())
  done;
  Alcotest.(check int) "recorded counts everything" 5
    (Telemetry.recorded tel);
  Alcotest.(check (list string)) "ring keeps the newest, newest first"
    [ "r5"; "r4"; "r3" ]
    (List.map (fun p -> p.Telemetry.p_id) (Telemetry.profiles tel));
  Alcotest.(check bool) "find hits a live id" true
    (Telemetry.find tel "r4" <> None);
  Alcotest.(check bool) "evicted id is gone" true
    (Telemetry.find tel "r1" = None);
  let tel0 = Telemetry.create ~ring:0 () in
  Telemetry.record ~now:1. tel0 (fake_profile ~id:"x" ~route:"/x" ());
  Alcotest.(check (list string)) "ring 0 stores nothing" []
    (List.map (fun p -> p.Telemetry.p_id) (Telemetry.profiles tel0));
  Alcotest.(check int) "ring 0 still counts" 1 (Telemetry.recorded tel0)

let access_log_rotation_and_roundtrip () =
  let path = Filename.temp_file "shapmc_access" ".jsonl" in
  let line_of i =
    Telemetry.access_line
      (fake_profile ~id:(Printf.sprintf "req-%02d" i) ~route:"/v1/shapley" ())
  in
  (* fixed-width ids → identical line lengths; cap at 7 lines so 12
     writes rotate exactly once (a second rotation would overwrite the
     single .1 file — that bounded-disk behavior is the design) *)
  let line_len = String.length (J.to_string (line_of 1)) + 1 in
  let max_bytes = 7 * line_len in
  let al = Access_log.open_ ~max_bytes path in
  let lines_written = 12 in
  for i = 1 to lines_written do
    Access_log.write al (line_of i)
  done;
  Access_log.close al;
  Access_log.close al;  (* idempotent *)
  let rotated = Access_log.rotated_path path in
  Alcotest.(check bool) "rotation happened" true (Sys.file_exists rotated);
  let read_lines p =
    let ic = open_in p in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let all = read_lines rotated @ read_lines path in
  Alcotest.(check int) "no line lost across rotation" lines_written
    (List.length all);
  Alcotest.(check bool) "active file is bounded" true
    ((Unix.stat path).Unix.st_size <= max_bytes);
  List.iteri
    (fun i line ->
      match J.parse_opt line with
      | Some (J.Obj _ as j) ->
        Alcotest.(check string)
          (Printf.sprintf "line %d id" i)
          (Printf.sprintf "req-%02d" (i + 1))
          (str_exn (member_exn "id" j));
        (* round-trip: parse → print → parse is stable *)
        Alcotest.(check bool)
          (Printf.sprintf "line %d reprints stably" i)
          true
          (J.parse (J.to_string j) = j)
      | _ -> Alcotest.failf "unparseable access-log line: %s" line)
    all;
  Sys.remove path;
  Sys.remove rotated

let sliding_window_rolls () =
  (try
     ignore (Sliding.create ~window:0.);
     Alcotest.fail "window 0 must be rejected"
   with Invalid_argument _ -> ());
  let w = Sliding.create ~window:60. in
  let empty = Sliding.snapshot ~now:5. w in
  Alcotest.(check int) "empty window: no requests" 0 empty.Sliding.w_requests;
  Alcotest.(check (float 0.)) "empty window: ratio 0" 0.
    empty.Sliding.w_error_ratio;
  Alcotest.(check bool) "empty window: nan percentiles" true
    (Float.is_nan empty.Sliding.w_p50);
  Sliding.observe ~now:10. w ~ok:true 0.1;
  Sliding.observe ~now:20. w ~ok:true 0.1;
  Sliding.observe ~now:30. w ~ok:false 0.4;
  Sliding.observe ~now:40. w ~ok:false 0.4;
  let s = Sliding.snapshot ~now:45. w in
  Alcotest.(check int) "all four inside the window" 4 s.Sliding.w_requests;
  Alcotest.(check int) "errors counted" 2 s.Sliding.w_errors;
  Alcotest.(check (float 1e-9)) "ratio" 0.5 s.Sliding.w_error_ratio;
  Alcotest.(check bool) "percentiles ordered" true
    (s.Sliding.w_p50 <= s.Sliding.w_p95 && s.Sliding.w_p95 <= s.Sliding.w_p99);
  Alcotest.(check bool) "p50 in the data range" true
    (s.Sliding.w_p50 > 0. && s.Sliding.w_p50 < 0.5);
  (* the early observations age out, late ones survive *)
  let s = Sliding.snapshot ~now:75. w in
  Alcotest.(check bool) "old observations aged out" true
    (s.Sliding.w_requests < 4 && s.Sliding.w_requests >= 1);
  (* far in the future everything is gone *)
  let s = Sliding.snapshot ~now:500. w in
  Alcotest.(check int) "window fully drained" 0 s.Sliding.w_requests;
  (* and the ring accepts new epochs after the gap *)
  Sliding.observe ~now:501. w ~ok:true 0.2;
  let s = Sliding.snapshot ~now:502. w in
  Alcotest.(check int) "ring reusable after a gap" 1 s.Sliding.w_requests

let telemetry_slo_gauges () =
  let reg = Metrics.create () in
  let tel = Telemetry.create ~ring:4 () in
  Telemetry.record ~now:10. tel
    (fake_profile ~id:"ok1" ~route:"/x" ~wall:0.1 ());
  Telemetry.record ~now:11. tel
    (fake_profile ~id:"ok2" ~route:"/x" ~wall:0.1 ());
  Telemetry.record ~now:12. tel
    (fake_profile ~id:"boom" ~route:"/x" ~status:500 ~wall:0.1 ());
  (* a 4xx is the client's problem, not an SLO violation *)
  Telemetry.record ~now:13. tel
    (fake_profile ~id:"not-found" ~route:"/x" ~status:404 ~wall:0.1 ());
  Telemetry.set_slo_gauges ~now:20. ~registry:reg tel;
  let gauge ?labels name =
    match Metrics.gauge_value ~registry:reg ?labels name with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.(check (float 1e-9)) "1m error ratio counts only 5xx" 0.25
    (gauge ~labels:[ ("window", "1m") ] "http_slo_error_ratio");
  Alcotest.(check (float 1e-9)) "1m request count" 4.
    (gauge ~labels:[ ("window", "1m") ] "http_slo_window_requests");
  Alcotest.(check (float 1e-9)) "5m sees the same traffic" 4.
    (gauge ~labels:[ ("window", "5m") ] "http_slo_window_requests");
  Alcotest.(check bool) "p95 gauge positive" true
    (gauge ~labels:[ ("quantile", "0.95"); ("window", "1m") ]
       "http_slo_latency_seconds"
     > 0.);
  (* empty window: ratio and latency settle to 0, never NaN *)
  Telemetry.set_slo_gauges ~now:10_000. ~registry:reg tel;
  Alcotest.(check (float 0.)) "drained ratio is 0" 0.
    (gauge ~labels:[ ("window", "1m") ] "http_slo_error_ratio");
  Alcotest.(check (float 0.)) "drained latency is 0, not NaN" 0.
    (gauge ~labels:[ ("quantile", "0.5"); ("window", "1m") ]
       "http_slo_latency_seconds");
  let exposition = Metrics.to_openmetrics ~registry:reg () in
  Alcotest.(check bool) "exposition parses back" true
    (Metrics.parse_openmetrics exposition <> [])

let tail_aggregation () =
  let t = Tail.create () in
  let line profile = J.to_string (Telemetry.access_line profile) in
  let l1 = line (fake_profile ~id:"a1" ~route:"/v1/shapley" ()) in
  let l2 = line (fake_profile ~id:"a2" ~route:"/v1/shapley" ~status:503 ()) in
  let l3 = line (fake_profile ~id:"b1" ~route:"/healthz" ~status:404 ()) in
  (* feed in chunks that split l2 mid-line: the carry must reassemble *)
  let whole = l1 ^ "\n" ^ l2 ^ "\n" in
  let cut = String.length l1 + 1 + (String.length l2 / 2) in
  Tail.feed t (String.sub whole 0 cut);
  Tail.feed t (String.sub whole cut (String.length whole - cut));
  Tail.feed t "this is not json\n";
  Tail.feed t l3;  (* unterminated — only finish flushes it *)
  Alcotest.(check int) "unterminated line not yet counted" 3 (Tail.lines t);
  Tail.finish t;
  Alcotest.(check int) "all lines consumed" 4 (Tail.lines t);
  Alcotest.(check int) "bad line counted, not fatal" 1 (Tail.bad_lines t);
  let rendered = Tail.render t in
  let contains sub =
    let n = String.length rendered and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub rendered i m = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "route row present" true (contains "/v1/shapley");
  Alcotest.(check bool) "total row present" true (contains "TOTAL");
  Alcotest.(check bool) "bad-line footer present" true
    (contains "1 unparseable line");
  Alcotest.(check string) "empty tail renders placeholder" "(no requests)\n"
    (Tail.render (Tail.create ()))

(* ------------------------------------------------------------------ *)
(* API: health fields and debug endpoints                              *)

let api_healthz_observability_fields () =
  let routes = Api.routes (demo_api ()) in
  let r = get routes "/healthz" in
  Alcotest.(check int) "healthz 200" 200 (status r);
  let j = json_of r in
  Alcotest.(check string) "version advertised" Api.version
    (str_exn (member_exn "version" j));
  Alcotest.(check int) "pid is this process" (Unix.getpid ())
    (int_exn (member_exn "pid" j));
  (match J.to_float (member_exn "uptime_seconds" j) with
   | Some up -> Alcotest.(check bool) "uptime non-negative" true (up >= 0.)
   | None -> Alcotest.fail "uptime_seconds not a number");
  (* the Shapley API alone has no operational surface: the server adds
     the telemetry's routes *)
  Alcotest.(check int) "no debug route in the Shapley API" 404
    (status (get routes "/v1/debug/requests"));
  Alcotest.(check int) "no /metrics in the Shapley API" 404
    (status (get routes "/metrics"));
  let tel = Telemetry.create ~ring:4 () in
  Alcotest.(check (list int)) "the telemetry serves them" [ 200; 200 ]
    (List.map
       (fun path -> status (get (Telemetry.routes tel) path))
       [ "/v1/debug/requests"; "/metrics" ])

let api_debug_requests () =
  let tel = Telemetry.create ~ring:4 () in
  let events =
    [ fake_event ~seq:0 ~req:"r1" "dpll"; fake_event ~seq:1 ~req:"r1" "dpll" ]
  in
  Telemetry.record ~now:5. tel
    (fake_profile ~id:"r1" ~route:"/v1/shapley" ~events ());
  Telemetry.record ~now:6. tel (fake_profile ~id:"r2" ~route:"/healthz" ());
  let routes = Telemetry.routes tel in
  let r = get routes "/v1/debug/requests" in
  Alcotest.(check int) "listing 200" 200 (status r);
  let j = json_of r in
  Alcotest.(check int) "count" 2 (int_exn (member_exn "count" j));
  Alcotest.(check int) "recorded" 2 (int_exn (member_exn "recorded" j));
  let ids =
    List.map
      (fun s -> str_exn (member_exn "id" s))
      (list_exn (member_exn "requests" j))
  in
  Alcotest.(check (list string)) "newest first" [ "r2"; "r1" ] ids;
  let r = get routes "/v1/debug/requests/r1" in
  Alcotest.(check int) "profile 200" 200 (status r);
  let j = json_of r in
  Alcotest.(check string) "profile id" "r1" (str_exn (member_exn "id" j));
  Alcotest.(check int) "events_dropped" 0
    (int_exn (member_exn "events_dropped" j));
  let decoded =
    List.map Trace_export.event_of_json (list_exn (member_exn "events" j))
  in
  Alcotest.(check bool) "events round-trip through the trace codec" true
    (decoded = events);
  let r = get routes "/v1/debug/requests/nope" in
  Alcotest.(check int) "unknown id is 404" 404 (status r);
  Alcotest.(check string) "the 404 names the ring's capacity, not its fill"
    "no profile for request nope (ring keeps the last 4)"
    (str_exn (member_exn "message" (member_exn "error" (json_of r))));
  let r = get routes "/v1/debug/requests/r1?format=chrome" in
  Alcotest.(check int) "chrome export 200" 200 (status r);
  Alcotest.(check (option string)) "chrome export is json"
    (Some "application/json")
    (List.assoc_opt "Content-Type" r.Router.headers);
  let trace_events = list_exn (member_exn "traceEvents" (json_of r)) in
  Alcotest.(check bool) "chrome export has the oracle slices" true
    (List.length trace_events >= 2);
  Alcotest.(check int) "unknown format is 400" 400
    (status (get routes "/v1/debug/requests/r1?format=bogus"))

(* ------------------------------------------------------------------ *)
(* End-to-end: isolation, headers, access log, SLO series              *)

(* Six different queries so each client's request does real oracle work
   (results are memoized per query, so six clients on one query would
   leave five of them oracle-free). *)
let multi_query_api n =
  Api.of_pairs
    (List.init n (fun i ->
         ( Printf.sprintf "q%d" i,
           (page_db (i + 2), Db_parser.parse_query "R(x)") )))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let server_scoped_observability_end_to_end () =
  Metrics.reset ();
  let clients = 6 in
  let log_path = Filename.temp_file "shapmc_e2e_access" ".jsonl" in
  let access = Access_log.open_ log_path in
  let api = multi_query_api clients in
  with_server ~jobs:4 ~debug_requests:32 ~access_log:access (Api.routes api)
    (fun srv port ->
      let domains =
        Array.init clients (fun i ->
            Domain.spawn (fun () ->
                let rid = Printf.sprintf "client-%d" i in
                let st, hdrs, _ =
                  Client.oneshot port "POST" "/v1/shapley/all"
                    ~headers:[ ("X-Request-Id", rid) ]
                    ~body:(Printf.sprintf {|{"query":"q%d"}|} i)
                in
                (rid, st, List.assoc_opt "x-request-id" hdrs,
                 List.assoc_opt "traceparent" hdrs)))
      in
      let results = Array.to_list (Array.map Domain.join domains) in
      List.iter
        (fun (rid, st, echoed, tp) ->
          Alcotest.(check int) (rid ^ " status") 200 st;
          Alcotest.(check (option string)) (rid ^ " echoed id") (Some rid)
            echoed;
          match tp with
          | Some tp ->
            Alcotest.(check bool) (rid ^ " valid traceparent") true
              (Request_id.parse_traceparent tp <> None)
          | None -> Alcotest.failf "%s: no traceparent header" rid)
        results;
      (* profiles are recorded just after the response bytes go out —
         wait for all six before reading them back *)
      let deadline = Unix.gettimeofday () +. 5. in
      while
        Server.requests_served srv < clients
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      (* every profile's every event carries exactly its own request id:
         zero cross-request leakage at jobs=4 *)
      List.iter
        (fun (rid, _, _, _) ->
          let st, _, body =
            Client.oneshot port "GET" ("/v1/debug/requests/" ^ rid)
          in
          Alcotest.(check int) (rid ^ " profile served") 200 st;
          let j = J.parse body in
          Alcotest.(check string) (rid ^ " profile id") rid
            (str_exn (member_exn "id" j));
          Alcotest.(check bool) (rid ^ " oracle work recorded") true
            (int_exn (member_exn "oracle_calls" j) > 0);
          let events = list_exn (member_exn "events" j) in
          Alcotest.(check bool) (rid ^ " events captured") true
            (events <> []);
          List.iter
            (fun ej ->
              let e = Trace_export.event_of_json ej in
              match List.assoc_opt "req" e.Trace.attrs with
              | Some (Trace.Str id) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s event %d tagged with its request"
                     rid e.Trace.seq)
                  rid id
              | _ ->
                Alcotest.failf "%s: event %d without a req attribute" rid
                  e.Trace.seq)
            events;
          (* the same buffer exports through the chrome tooling *)
          let st, _, chrome =
            Client.oneshot port "GET"
              ("/v1/debug/requests/" ^ rid ^ "?format=chrome")
          in
          Alcotest.(check int) (rid ^ " chrome export") 200 st;
          Alcotest.(check bool) (rid ^ " chrome has slices") true
            (list_exn (member_exn "traceEvents" (J.parse chrome)) <> []))
        results;
      (* rolling SLO series are on the exposition *)
      let _, _, metrics = Client.oneshot port "GET" "/metrics" in
      let samples = Metrics.parse_openmetrics metrics in
      let series name labels =
        List.exists
          (fun s ->
            s.Metrics.om_name = name
            && List.for_all
                 (fun (k, v) ->
                   List.assoc_opt k s.Metrics.om_labels = Some v)
                 labels)
          samples
      in
      Alcotest.(check bool) "1m error ratio exported" true
        (series "shapmc_http_slo_error_ratio" [ ("window", "1m") ]);
      Alcotest.(check bool) "5m window count exported" true
        (series "shapmc_http_slo_window_requests" [ ("window", "5m") ]);
      Alcotest.(check bool) "p99 latency exported" true
        (series "shapmc_http_slo_latency_seconds"
           [ ("window", "5m"); ("quantile", "0.99") ]));
  Access_log.close access;
  (* the access log has one parseable line per client request (plus the
     debug/metrics fetches above), each round-tripping through the JSON
     codec *)
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file log_path))
  in
  let logged_ids =
    List.filter_map
      (fun l ->
        match J.parse_opt l with
        | Some (J.Obj _ as j) ->
          Alcotest.(check bool) "access line reprints stably" true
            (J.parse (J.to_string j) = j);
          Option.bind (J.member "id" j) J.to_str
        | _ -> Alcotest.failf "unparseable access-log line: %s" l)
      lines
  in
  List.iter
    (fun i ->
      let rid = Printf.sprintf "client-%d" i in
      Alcotest.(check bool) (rid ^ " in the access log") true
        (List.mem rid logged_ids))
    (List.init clients (fun i -> i));
  Sys.remove log_path

(* Satellite: /metrics stays scrapeable mid-load, the in-flight gauge
   never goes negative, and after quiescing the counter totals agree
   with the access log line count. *)
let server_metrics_under_load_reconcile () =
  Metrics.reset ();
  let log_path = Filename.temp_file "shapmc_load_access" ".jsonl" in
  let access = Access_log.open_ log_path in
  let api = multi_query_api 4 in
  let served = ref 0 in
  with_server ~jobs:4 ~debug_requests:8 ~access_log:access (Api.routes api)
    (fun srv port ->
      let load =
        Array.init 4 (fun i ->
            Domain.spawn (fun () ->
                let st, _, _ =
                  Client.oneshot port "POST" "/v1/shapley/all"
                    ~body:(Printf.sprintf {|{"query":"q%d"}|} i)
                in
                st))
      in
      let scrapes = ref 0 in
      let scraping = ref true in
      let scraper =
        Domain.spawn (fun () ->
            let ok = ref true in
            while !scraping do
              let st, _, body = Client.oneshot port "GET" "/metrics" in
              if st <> 200 then ok := false;
              let samples = Metrics.parse_openmetrics body in
              if samples = [] then ok := false;
              List.iter
                (fun s ->
                  if
                    s.Metrics.om_name = "shapmc_http_in_flight"
                    && s.Metrics.om_value < 0.
                  then ok := false)
                samples;
              incr scrapes
            done;
            !ok)
      in
      let statuses = Array.map Domain.join load in
      (* under heavy machine load the four clients can finish before the
         scraper turns over twice; let it reach two expositions (they
         still overlap the post-response bookkeeping) before stopping *)
      let scrape_deadline = Unix.gettimeofday () +. 5. in
      while !scrapes < 2 && Unix.gettimeofday () < scrape_deadline do
        Unix.sleepf 0.005
      done;
      scraping := false;
      let scrapes_ok = Domain.join scraper in
      Array.iteri
        (fun i st ->
          Alcotest.(check int) (Printf.sprintf "load client %d" i) 200 st)
        statuses;
      Alcotest.(check bool) "several scrapes happened mid-load" true
        (!scrapes >= 2);
      Alcotest.(check bool)
        "every scrape parsed; in-flight never negative" true scrapes_ok;
      (* quiesce: the counter and the log line are written after the
         response bytes, so wait for the served count to settle *)
      let rec settle prev =
        Unix.sleepf 0.05;
        let cur = Server.requests_served srv in
        if cur <> prev then settle cur else cur
      in
      served := settle (Server.requests_served srv));
  Access_log.close access;
  let logged =
    List.length
      (List.filter (fun l -> String.trim l <> "")
         (String.split_on_char '\n' (read_file log_path)))
  in
  Alcotest.(check int) "access log reconciles with requests served" !served
    logged;
  let total =
    int_of_float (Metrics.counter_total "http_requests")
  in
  Alcotest.(check int) "counter total reconciles with the access log"
    logged total;
  Sys.remove log_path

(* ------------------------------------------------------------------ *)
(* The serving cache: warm requests are oracle-free, and concurrent
   misses of one key single-flight to a single solve.                  *)

let server_warm_path_oracle_free () =
  Metrics.reset ();
  let api = demo_api () in
  with_server ~debug_requests:8 (Api.routes api) (fun srv port ->
      let ask rid =
        Client.oneshot port "POST" "/v1/shapley/all"
          ~headers:[ ("X-Request-Id", rid) ]
          ~body:{|{"query":"demo"}|}
      in
      let st_cold, _, body_cold = ask "cold" in
      let st_warm, _, body_warm = ask "warm" in
      Alcotest.(check int) "cold 200" 200 st_cold;
      Alcotest.(check int) "warm 200" 200 st_warm;
      Alcotest.(check string) "bit-identical payloads" body_cold body_warm;
      (* profiles are recorded just after the response bytes go out *)
      let deadline = Unix.gettimeofday () +. 5. in
      while Server.requests_served srv < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      let oracle_calls rid =
        let st, _, body =
          Client.oneshot port "GET" ("/v1/debug/requests/" ^ rid)
        in
        Alcotest.(check int) (rid ^ " profile served") 200 st;
        int_exn (member_exn "oracle_calls" (J.parse body))
      in
      Alcotest.(check bool) "cold request paid for the solve" true
        (oracle_calls "cold" > 0);
      Alcotest.(check int) "warm request made zero oracle calls" 0
        (oracle_calls "warm");
      let _, _, metrics = Client.oneshot port "GET" "/metrics" in
      let hits =
        List.fold_left
          (fun acc s ->
            if s.Metrics.om_name = "shapmc_cache_hits_total" then
              acc +. s.Metrics.om_value
            else acc)
          0.
          (Metrics.parse_openmetrics metrics)
      in
      Alcotest.(check bool) "/metrics shows cache hits" true (hits > 0.))

(* Regression for the old per-entry memo, whose mutex was held across
   the whole solve: six concurrent requests for distinct facts of one
   query must all succeed with exact values, and the shared cache key
   must be solved exactly once — every other request joins the flight
   (or hits) and stays oracle-free. *)
let server_cache_single_flight_under_concurrency () =
  Metrics.reset ();
  let api = demo_api () in
  with_server ~jobs:4 ~debug_requests:16 (Api.routes api) (fun srv port ->
      let clients = 6 in
      let domains =
        Array.init clients (fun i ->
            Domain.spawn (fun () ->
                let rid = Printf.sprintf "flight-%d" i in
                let fact = (i mod 4) + 1 in
                let st, _, body =
                  Client.oneshot port "POST" "/v1/shapley"
                    ~headers:[ ("X-Request-Id", rid) ]
                    ~body:(Printf.sprintf {|{"query":"demo","fact":%d}|} fact)
                in
                (rid, st, body)))
      in
      let results = Array.to_list (Array.map Domain.join domains) in
      List.iter
        (fun (rid, st, body) ->
          Alcotest.(check int) (rid ^ " status") 200 st;
          let sh = member_exn "shapley" (J.parse body) in
          Alcotest.(check string) (rid ^ " num") "1"
            (str_exn (member_exn "num" sh));
          Alcotest.(check string) (rid ^ " den") "4"
            (str_exn (member_exn "den" sh)))
        results;
      let deadline = Unix.gettimeofday () +. 5. in
      while
        Server.requests_served srv < clients
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      let paid =
        List.filter
          (fun (rid, _, _) ->
            let st, _, body =
              Client.oneshot port "GET" ("/v1/debug/requests/" ^ rid)
            in
            Alcotest.(check int) (rid ^ " profile served") 200 st;
            int_exn (member_exn "oracle_calls" (J.parse body)) > 0)
          results
      in
      Alcotest.(check int)
        "exactly one request paid for the solve (single-flight)" 1
        (List.length paid))

(* ------------------------------------------------------------------ *)
(* The response writer                                                 *)

(* Everything readable from [fd] until the peer closes. *)
let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | k ->
      Buffer.add_subbytes b chunk 0 k;
      go ()
  in
  go ()

(* [write_response] over a socket pair, the far end drained by another
   domain: the bytes that arrived and the length the writer returned. *)
let written ?headers ?keep_alive ~status body =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Domain.spawn (fun () -> read_all theirs) in
  let length =
    Fun.protect
      ~finally:(fun () -> Unix.close ours)
      (fun () ->
        Http.write_response (Http.writer ours) ?headers ?keep_alive ~status
          ~body ())
  in
  let bytes = Domain.join reader in
  Unix.close theirs;
  (bytes, length)

(* The head's [Content-Length] and the body after the empty line. *)
let split_response raw =
  let sep = "\r\n\r\n" in
  let rec find i =
    if i + 4 > String.length raw then Alcotest.fail "no end of head"
    else if String.sub raw i 4 = sep then i
    else find (i + 1)
  in
  let h = find 0 in
  let declared =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some c
          when String.lowercase_ascii (String.sub line 0 c) = "content-length"
          ->
          int_of_string_opt
            (String.trim (String.sub line (c + 1) (String.length line - c - 1)))
        | _ -> None)
      (String.split_on_char '\n' (String.sub raw 0 h))
  in
  (Option.get declared, String.sub raw (h + 4) (String.length raw - h - 4))

let writer_matches_render_response () =
  List.iter
    (fun (what, headers, keep_alive, status, body) ->
      let raw, length = written ~headers ~keep_alive ~status body in
      Alcotest.(check string)
        (what ^ ": the writer's bytes are render_response's")
        (Http.render_response ~headers ~keep_alive ~status ~body ())
        raw;
      Alcotest.(check int) (what ^ ": length")
        (String.length (String.concat "" body))
        length)
    [ ("keep-alive, one header", [ ("Content-Type", "application/json") ],
       true, 200, [ "{}"; "\n" ]);
      ("close, three headers",
       [ ("Content-Type", "application/json"); ("X-Request-Id", "abc");
         ("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01") ],
       false, 404, [ {|{"error":|}; "{}"; "}"; "\n" ]);
      ("no headers, empty body", [], true, 204, []);
      ("empty parts", [ ("Allow", "GET") ], false, 405, [ ""; "x"; "" ]) ]

let writer_parts_around_the_buffer () =
  let size = Http.write_buffer_size in
  let part n c = String.make n c in
  let body =
    [ part 10 'a'; part size 'b'; part (size - 1) 'c'; part 2 'd';
      part (size + 1) 'e'; part (3 * size + 7) 'f'; part 1 'g' ]
  in
  let raw, length =
    written ~headers:[ ("Content-Type", "text/plain") ] ~status:200 body
  in
  let declared, received = split_response raw in
  Alcotest.(check int) "Content-Length is the bytes read"
    (String.length received) declared;
  Alcotest.(check int) "the writer returns it" declared length;
  Alcotest.(check bool) "the body arrives whole, in order" true
    (String.equal (String.concat "" body) received)

let writer_peer_closes_mid_body () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a stuck write fails the test instead of hanging it *)
  Unix.setsockopt_float ours Unix.SO_SNDTIMEO 10.;
  let reader =
    Domain.spawn (fun () ->
        let b = Bytes.create 100 in
        ignore (Unix.read theirs b 0 (Bytes.length b));
        Unix.close theirs)
  in
  (* far more than the socket holds, so the writer is mid-body when the
     peer closes *)
  let body = List.init 8 (fun _ -> String.make (1 lsl 20) 'x') in
  let length =
    Http.write_response (Http.writer ours) ~status:200 ~body ()
  in
  Domain.join reader;
  Unix.close ours;
  Alcotest.(check int) "returns the body's length" (8 lsl 20) length

(* A serve-hot database: [R(x), S(x, y)] over 8 R-facts and 56
   S-facts. *)
let hot_db () =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  for x = 1 to 8 do
    ignore (Database.insert db "R" [| Value.int x |]);
    for y = 1 to 7 do
      ignore (Database.insert db "S" [| Value.int x; Value.int (10 * y) |])
    done
  done;
  db

let warm_page_major_words () =
  let db = hot_db () in
  let routes =
    Api.routes
      (Api.of_pairs [ ("hot", (db, Db_parser.parse_query "R(x), S(x, y)")) ])
  in
  let body = {|{"query":"hot"}|} in
  let req =
    req_of_string
      (Printf.sprintf
         "POST /v1/shapley/all HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
         (String.length body) body)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let w = Http.writer null in
  let serve () =
    let _, r = Router.dispatch routes req in
    Http.write_response w ~headers:r.Router.headers ~keep_alive:true
      ~status:r.Router.status ~body:r.Router.body ()
  in
  let page = json_of (snd (Router.dispatch routes req)) in
  Alcotest.(check int) "a 64-fact page" 64
    (List.length (list_exn (member_exn "values" page)));
  Alcotest.(check bool) "a page over 256 words" true (serve () > 2048);
  for _ = 1 to 100 do ignore (serve ()) done;
  let n = 1000 in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do ignore (serve ()) done;
  let _, promoted1, major1 = Gc.counters () in
  Unix.close null;
  let direct = (major1 -. major0 -. (promoted1 -. promoted0)) /. float n in
  if direct >= 256. then
    Alcotest.failf
      "a warm page allocates %.1f words per request directly in the major \
       heap (bound 256)"
      direct

(* Bodies arrive in the daemon's 8 KB reads, each fed and then polled,
   as [Server]'s [fill] does.  The parser keeps the header scan's
   position and the parsed head, and copies the body once, so a 1 MiB
   body allocates a few times its size in all (re-parsing every byte so
   far on each feed and poll allocated 136 times its size).  A request
   that arrives in one read, followed by the next parser's empty
   leftover, stays within the 473 minor words that re-parsing cost it:
   keeping the work must not make small requests dearer. *)
let http_parse_allocation_linear () =
  let request body =
    Printf.sprintf
      "POST /v1/shapley/all HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
       application/json\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let size = 1 lsl 20 in
  let big = request (String.make size 'x') in
  let n = String.length big in
  let chunks =
    List.init ((n + 8191) / 8192) (fun i ->
        String.sub big (i * 8192) (min 8192 (n - (i * 8192))))
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let p = Http.create ~limits:Limits.default in
  List.iter (fun c -> Http.feed p c; ignore (Http.poll p)) chunks;
  let w1 = words () in
  (match Http.poll p with
   | Http.Request r ->
     Alcotest.(check int) "body length" size (String.length r.Http.body)
   | _ -> Alcotest.fail "the 1 MiB request did not parse");
  let ratio = (w1 -. w0) *. 8. /. float size in
  if ratio >= 8. then
    Alcotest.failf "a 1 MiB body allocated %.1f times its size (bound 8)"
      ratio;
  let small = request {|{"query":"hot3","limit":17}|} in
  Alcotest.(check int) "request bytes" 129 (String.length small);
  let one_read () =
    let p = Http.create ~limits:Limits.default in
    Http.feed p small;
    (match Http.poll p with
     | Http.Request _ -> ()
     | _ -> Alcotest.fail "the 129-byte request did not parse");
    let next = Http.create ~limits:Limits.default in
    Http.feed next (Http.leftover p);
    ignore (Http.poll next)
  in
  one_read ();
  let m0 = Gc.minor_words () in
  one_read ();
  let m1 = Gc.minor_words () in
  if m1 -. m0 > 473. then
    Alcotest.failf "a 129-byte request allocated %.0f minor words (bound 473)"
      (m1 -. m0)

(* ------------------------------------------------------------------ *)

let suite =
  [ t "http: request anatomy" http_basic;
    t "http: byte-at-a-time equals whole" http_byte_at_a_time;
    t "http: bare-LF tolerated" http_bare_lf;
    t "http: malformed inputs reject with 400" http_rejects;
    t "http: header cap exact at the boundary" http_header_cap_boundary;
    t "http: body cap exact at the boundary" http_body_cap_boundary;
    t "http: pipelined bytes carry over as leftover" http_pipelining_leftover;
    t "http: response rendering" http_render_response;
    fuzz_split_invariance;
    fuzz_header_cap_exact;
    json_roundtrip;
    t "json: escaping goldens" json_escaping_goldens;
    t "json: huge-factorial rational renders a finite float"
      json_rat_huge_factorial;
    t "router: dispatch, 404/405/500" router_dispatch;
    t "api: healthz and query catalog" api_healthz_queries;
    t "api: facts parameter errors" api_facts_errors;
    t "api: facts pages and cursors" api_facts_pages;
    t "api: golden last-page and empty-query" api_golden_last_page_and_empty;
    t "api: shapley bit-identical to the solver" api_shapley_bit_identical;
    t "api: shapley error paths" api_shapley_errors;
    t "api: shapley/approx values, CIs and determinism" api_shapley_approx;
    t "api: shapley/approx checkpoints reach the request scope"
      api_shapley_approx_scoped;
    t "api: shapley/approx error paths" api_shapley_approx_errors;
    t "api: cursor codec" cursor_codec;
    facts_pagination_property;
    shapley_all_pagination_property;
    t "server: routing over a real socket" server_routing_over_socket;
    t "server: keep-alive and per-connection cap" server_keep_alive_and_conn_cap;
    t "server: limits enforced on the wire" server_limits_on_the_wire;
    t "server: mid-request timeout answers 408" server_mid_request_timeout;
    t "server: concurrent clients, jobs 1 and 4 identical"
      server_concurrent_jobs_identical;
    t "server: /metrics round-trips through the parser"
      server_metrics_roundtrip;
    t "server: shutdown releases the port" server_shutdown_releases_port;
    t "request-id: traceparent parsing" request_id_traceparent_parse;
    t "request-id: generation invariants" request_id_generation;
    t "request-id: honors and sanitizes headers" request_id_honors_headers;
    t "router: param patterns match segment-wise" router_param_matching;
    t "router: param dispatch, labels, shadowing" router_param_dispatch;
    t "telemetry: ring eviction and lookup" telemetry_ring_and_lookup;
    t "access log: rotation and JSON round-trip"
      access_log_rotation_and_roundtrip;
    t "sliding: windows roll deterministically" sliding_window_rolls;
    t "telemetry: SLO gauges from the windows" telemetry_slo_gauges;
    t "tail: chunked feeding and aggregation" tail_aggregation;
    t "api: healthz version/pid/uptime" api_healthz_observability_fields;
    t "api: debug request endpoints" api_debug_requests;
    t "server: scoped observability end to end"
      server_scoped_observability_end_to_end;
    t "server: /metrics under load reconciles with the access log"
      server_metrics_under_load_reconcile;
    t "server: warm path is oracle-free with cache hits on /metrics"
      server_warm_path_oracle_free;
    t "server: concurrent misses single-flight to one solve"
      server_cache_single_flight_under_concurrency;
    t "exec: all submitted tasks run" exec_runs_everything;
    t "exec: jobs clamp" exec_jobs_clamp;
    t "exec: deadline then drain" exec_deadline_then_drain;
    t "exec: task exceptions are contained" exec_task_exception_is_contained;
    t "exec: nested fan-out degrades in a worker" exec_nested_fanout_degrades;
    t "limits: non-positive values are rejected, naming the flag"
      limits_validation;
    t "api: pages byte-identical to the tree renderer, cold and warm"
      api_pages_match_the_tree_renderer;
    t "api: shapley_all takes only its own entries"
      api_shapley_all_own_entries;
    t "http: the writer sends render_response's bytes"
      writer_matches_render_response;
    t "http: parts below, at and above the writer's buffer arrive whole"
      writer_parts_around_the_buffer;
    t "http: a peer closing mid-body ends the write silently"
      writer_peer_closes_mid_body;
    t "serve: a warm page allocates under 256 major-heap words"
      warm_page_major_words;
    t "http: a 1 MiB body in 8 KB reads allocates under 8x its size"
      http_parse_allocation_linear ]

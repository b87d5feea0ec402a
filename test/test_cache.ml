(** The serving cache: LRU mechanics, single-flight stampede control,
    answer round-trips, content keys — and the differential harness
    proving cached answers are bit-identical to fresh solves under
    random mutation/solve interleavings, with no invalidation call,
    sequentially and on the domain pool.

    Determinism: the qcheck cases use fixed-seed [Random.State]s (same
    idiom as {!Test_differential}), and every scenario rebuilds its
    database and cache from scratch, so a reported counterexample
    replays. *)

open Helpers

let iterations default =
  match Sys.getenv_opt "SHAPMC_QCHECK_COUNT" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

let dtest ~seed ~count name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 2025; seed |])
    (QCheck.Test.make ~count:(iterations count) ~name arb prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lru *)

let lru_eviction_order () =
  let evicted = ref [] in
  let l = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted)
      ~capacity:3 () in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  Lru.put l "c" 3;
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Lru.keys l);
  (* A find bumps: "a" becomes MRU, so the next eviction takes "b". *)
  check_bool "find a" true (Lru.find l "a" = Some 1);
  Lru.put l "d" 4;
  Alcotest.(check (list string)) "b evicted" [ "d"; "a"; "c" ] (Lru.keys l);
  Alcotest.(check (list string)) "on_evict saw b" [ "b" ] !evicted;
  check_bool "b gone" false (Lru.mem l "b");
  check_int "length" 3 (Lru.length l);
  check_int "capacity" 3 (Lru.capacity l)

let lru_replace_bumps () =
  let l = Lru.create ~capacity:2 () in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  Lru.put l "a" 10;
  (* replace: "a" is MRU again *)
  Lru.put l "c" 3;
  (* evicts "b", the LRU *)
  check_bool "a survives with new value" true (Lru.find l "a" = Some 10);
  check_bool "b evicted" false (Lru.mem l "b");
  check_bool "c present" true (Lru.mem l "c")

(* Three 3-fact answers in an 8-fact LRU: the third evicts the oldest
   as a whole, and [on_evict] sees its weight. *)
let lru_evicts_by_weight () =
  let evicted = ref [] in
  let l =
    Lru.create ~on_evict:(fun k w -> evicted := (k, w) :: !evicted)
      ~capacity:8 ()
  in
  Lru.put l ~weight:3 "a" 1;
  Lru.put l ~weight:3 "b" 2;
  check_int "two answers, six facts" 6 (Lru.weight l);
  Lru.put l ~weight:3 "c" 3;
  Alcotest.(check (list string)) "the oldest went whole" [ "c"; "b" ]
    (Lru.keys l);
  Alcotest.(check (list (pair string int))) "on_evict saw its weight"
    [ ("a", 3) ] !evicted;
  check_int "weight" 6 (Lru.weight l);
  check_int "entries" 2 (Lru.length l);
  (* Heavier than the whole capacity: evicted at once, displacing
     nothing. *)
  Lru.put l ~weight:9 "huge" 4;
  check_bool "huge not resident" false (Lru.mem l "huge");
  Alcotest.(check (list string)) "b and c stay" [ "c"; "b" ] (Lru.keys l);
  Alcotest.(check (list (pair string int))) "on_evict saw it"
    [ ("huge", 9); ("a", 3) ] !evicted;
  (* A replacement re-weighs its entry and evicts nothing. *)
  Lru.put l ~weight:1 "b" 2;
  check_int "weight after the replacement" 4 (Lru.weight l);
  check_int "no eviction" 2 (List.length !evicted);
  Alcotest.check_raises "weight 0 rejected"
    (Invalid_argument "Lru.put: weight must be positive")
    (fun () -> Lru.put l ~weight:0 "z" 0)

let lru_bad_capacity () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create ~capacity:0 () : int Lru.t))

(* ------------------------------------------------------------------ *)
(* Single-flight *)

(* Spawn [n] domains that all enter [run] on the same key at once: an
   arrival counter is incremented immediately before [run], and the
   computation spins until everyone has arrived (plus a grace sleep for
   the increment-to-run window), so every sibling is parked on the
   flight when the leader finally computes. *)
let stampede ~n f =
  let sf = Single_flight.create () in
  let arrived = Atomic.make 0 in
  let body () =
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.05;
    f ()
  in
  let ds =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            match Single_flight.run sf "k" body with
            | v -> Ok v
            | exception e -> Error e))
  in
  let rs = List.map Domain.join ds in
  (sf, rs)

let single_flight_stampede () =
  let solves = Atomic.make 0 in
  let sf, rs =
    stampede ~n:8 (fun () ->
        Atomic.incr solves;
        42)
  in
  check_int "exactly one leader ran" 1 (Atomic.get solves);
  check_int "no flight left up" 0 (Single_flight.in_flight sf);
  List.iter
    (fun r -> check_bool "every caller got the answer" true (r = Ok 42))
    rs

let single_flight_failure () =
  let runs = Atomic.make 0 in
  let sf, rs =
    stampede ~n:4 (fun () ->
        Atomic.incr runs;
        failwith "boom")
  in
  check_int "one leader ran" 1 (Atomic.get runs);
  List.iter
    (fun r ->
      match r with
      | Error (Failure m) -> Alcotest.(check string) "exception shared" "boom" m
      | _ -> Alcotest.fail "expected the leader's failure")
    rs;
  (* The failed flight is dropped: the key is retryable. *)
  check_int "retry succeeds" 7
    (Single_flight.run sf "k" (fun () ->
         Atomic.incr runs;
         7));
  check_int "retry led" 2 (Atomic.get runs)

(* ------------------------------------------------------------------ *)
(* The cache *)

let sized_by_create () =
  check_int "capacity" 5 (Cache.stats (Cache.create ~results:5 ())).Cache.capacity;
  check_int "default capacity" Cache.default_results
    (Cache.stats (Cache.create ())).Cache.capacity;
  check_bool "capacity 0 rejected" true
    (try
       ignore (Cache.create ~results:0 () : Cache.t);
       false
     with Invalid_argument _ -> true)

let shapley_tier_roundtrip () =
  let c = Cache.create () in
  let solves = ref 0 in
  let answer = [ (1, Rat.of_ints 1 4); (2, Rat.of_ints 3 4) ] in
  let solve () =
    incr solves;
    answer
  in
  let v1 = Cache.shapley_all c ~key:"q" solve in
  let v2 = Cache.shapley_all c ~key:"q" solve in
  check_int "second lookup is a hit" 1 !solves;
  check_bool "the hit returns the answer in fact order" true
    (Cache.bindings v1 = answer && Cache.bindings v2 = answer);
  check_bool "no render, no elements" true (v2.Cache.elements = [||]);
  check_int "resident facts" 2 (Cache.stats c).Cache.resident;
  (* A rendering caller does not take the unrendered answer: it fills
     once, and its elements are rendered on that fill only. *)
  let renders = ref 0 in
  let render f v =
    incr renders;
    Printf.sprintf "%d=%s" f (Rat.to_string v)
  in
  let r1 = Cache.shapley_all c ~key:"q" ~render solve in
  let r2 = Cache.shapley_all c ~key:"q" ~render solve in
  check_int "the rendering caller re-solved once" 2 !solves;
  check_int "rendered on the fill, not on the hit" 2 !renders;
  Alcotest.(check (array string)) "elements in fact order"
    [| "1=1/4"; "2=3/4" |] r2.Cache.elements;
  check_bool "the hit is the stored answer" true (r1 == r2);
  check_bool "an unrendering caller takes it too" true
    (Cache.shapley_all c ~key:"q" solve == r2)

let shapley_tier_oversized_answer () =
  (* A cache of 2 facts, an answer of 4: it is never resident, so
     every lookup re-solves — and stays exact. *)
  let c = Cache.create ~results:2 () in
  let solves = ref 0 in
  let answer = List.init 4 (fun i -> (i + 1, Rat.of_ints 1 (i + 1))) in
  let solve () =
    incr solves;
    answer
  in
  let v1 = Cache.shapley_all c ~key:"q" solve in
  let v2 = Cache.shapley_all c ~key:"q" solve in
  check_int "an answer larger than the tier re-solves" 2 !solves;
  check_bool "still exact" true
    (Cache.bindings v1 = answer && Cache.bindings v2 = answer);
  let stats = Cache.stats c in
  check_int "nothing resident" 0 stats.Cache.resident;
  check_int "each fill evicted its 4 facts" 8 stats.Cache.evicted

let cache_stampede () =
  let c = Cache.create () in
  let solves = Atomic.make 0 in
  let answer = [ (1, Rat.of_ints 1 2) ] in
  let arrived = Atomic.make 0 in
  let n = 6 in
  let ds =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            Cache.shapley_all c ~key:"q" (fun () ->
                while Atomic.get arrived < n do
                  Domain.cpu_relax ()
                done;
                Unix.sleepf 0.05;
                Atomic.incr solves;
                answer)))
  in
  let rs = List.map Domain.join ds in
  check_int "k concurrent misses, one solve" 1 (Atomic.get solves);
  List.iter
    (fun r ->
      check_bool "all callers share it" true (Cache.bindings r = answer))
    rs;
  let stats = Cache.stats c in
  check_int "one miss (the leader)" 1 stats.Cache.misses;
  check_int "joiners and repeats are hits" (n - 1) stats.Cache.hits

(* A rendering caller that arrives while a caller without [render] leads
   the same key does not take that leader's answer: it looks up again
   and fills rendered.  Should it arrive after the leader, it refuses the
   stored answer and fills all the same, so both orders count 2 misses. *)
let rendering_joiner_fills_rendered () =
  let c = Cache.create () in
  let answer = [ (1, Rat.one); (2, Rat.zero) ] in
  let solving = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        Cache.shapley_all c ~key:"q" (fun () ->
            Atomic.set solving true;
            Unix.sleepf 0.2;
            answer))
  in
  while not (Atomic.get solving) do
    Domain.cpu_relax ()
  done;
  let rendered =
    Cache.shapley_all c ~key:"q"
      ~render:(fun f _ -> string_of_int f)
      (fun () -> answer)
  in
  let plain = Domain.join leader in
  Alcotest.(check (array string)) "the leader stored no elements" [||]
    plain.Cache.elements;
  Alcotest.(check (array string)) "the rendering caller got its elements"
    [| "1"; "2" |] rendered.Cache.elements;
  check_bool "same values" true (Cache.bindings rendered = answer);
  let stats = Cache.stats c in
  check_int "two fills" 2 stats.Cache.misses;
  check_int "no hit" 0 stats.Cache.hits

let exposed name tier =
  List.fold_left
    (fun acc s ->
      if
        s.Metrics.om_name = name
        && s.Metrics.om_labels = [ ("tier", tier) ]
      then acc +. s.Metrics.om_value
      else acc)
    0.
    (Metrics.parse_openmetrics (Metrics.to_openmetrics ()))

let exposed_evictions = exposed "shapmc_cache_evictions_total"
let exposed_gauge name = exposed ("shapmc_" ^ name)

let cache_metrics_exported () =
  let c = Cache.create () in
  Metrics.reset ();
  ignore (Cache.shapley_all c ~key:"k" (fun () -> [ (1, Rat.one) ]));
  ignore (Cache.shapley_all c ~key:"k" (fun () -> [ (1, Rat.one) ]));
  check_bool "cache_hits counter exported" true
    (Metrics.counter_total "cache_hits" >= 1.);
  check_bool "cache_misses counter exported" true
    (Metrics.counter_total "cache_misses" >= 1.);
  check_bool "openmetrics carries the family" true
    (let om = Metrics.to_openmetrics () in
     List.exists
       (fun s -> s.Metrics.om_name = "shapmc_cache_hits_total")
       (Metrics.parse_openmetrics om));
  (* Four one-fact answers into two result slots: two are evicted, and
     /metrics counts what stats counts. *)
  let c = Cache.create ~results:2 () in
  List.iter
    (fun q ->
      ignore (Cache.shapley_all c ~key:q (fun () -> [ (1, Rat.one) ])))
    [ "q1"; "q2"; "q3"; "q4" ];
  check_int "stats: evicted facts" 2 (Cache.stats c).Cache.evicted;
  check_int "/metrics: shapley evictions" 2
    (int_of_float (exposed_evictions "shapley"));
  (* Facts, not answers: a 3-fact answer pushes out one answer of two
     facts, and both sides count what is resident and evicted in facts. *)
  Metrics.reset ();
  let c = Cache.create ~results:4 () in
  let fill key facts =
    ignore
      (Cache.shapley_all c ~key (fun () ->
           List.map (fun f -> (f, Rat.one)) facts))
  in
  fill "a" [ 1; 2 ];
  fill "b" [ 1 ];
  fill "c" [ 1; 2; 3 ];
  let stats = Cache.stats c in
  check_int "stats: resident facts" 4 stats.Cache.resident;
  check_int "stats: evicted facts" 2 stats.Cache.evicted;
  check_int "/metrics: entries are facts" 4
    (int_of_float (exposed_gauge "cache_entries" "shapley"));
  check_int "/metrics: evicted facts" 2
    (int_of_float (exposed_evictions "shapley"))

let exposed_bytes () = int_of_float (exposed_gauge "cache_bytes" "shapley")

(* cache_bytes{tier="shapley"} is the length of the rendered elements
   resident, kept current by fills and evictions. *)
let cache_bytes_gauge () =
  Metrics.reset ();
  let c = Cache.create ~results:4 () in
  let render f _ = String.make f 'x' in
  let fill key facts =
    ignore
      (Cache.shapley_all c ~key ~render (fun () ->
           List.map (fun f -> (f, Rat.one)) facts))
  in
  fill "a" [ 1; 2 ];
  check_int "1 + 2 bytes" 3 (exposed_bytes ());
  fill "b" [ 5 ];
  check_int "+5 bytes" 8 (exposed_bytes ());
  ignore (Cache.shapley_all c ~key:"c" (fun () -> [ (7, Rat.one) ]));
  check_int "an unrendered answer adds no bytes" 8 (exposed_bytes ());
  fill "d" [ 3; 4 ];
  check_int "6 facts > 4: evicting a releases its 3 bytes" 12
    (exposed_bytes ());
  fill "e" [ 6 ];
  check_int "b evicted, e resident" 13 (exposed_bytes ());
  fill "f" [ 1; 2; 3 ];
  check_int "evicting c and d releases d's 7 bytes; f adds 6" 12
    (exposed_bytes ())

(* ------------------------------------------------------------------ *)
(* Dichotomy-level caching: content keys decide every hit *)

let solver = Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
         | Dichotomy.Safe_plan_circuit -> "safe-plan"
         | Dichotomy.Compiled_dnf -> "compiled-dnf"))
    ( = )

let dichotomy_cached_matches_fresh () =
  let db = example13_db () in
  let q = Db_parser.parse_query "R1(x), R2(x)" in
  let cache = Cache.create () in
  let fresh, fs = Dichotomy.shapley db q in
  let cold, cs = Dichotomy.shapley_cached ~cache db q in
  let warm, ws = Dichotomy.shapley_cached ~cache db q in
  let cold = Cache.bindings cold and warm = Cache.bindings warm in
  Alcotest.check solver "solver (fresh vs cold)" fs cs;
  Alcotest.check solver "solver (fresh vs warm)" fs ws;
  check_shap "cold = fresh" fresh cold;
  check_shap "warm = fresh" fresh warm;
  let stats = Cache.stats cache in
  check_int "one miss" 1 stats.Cache.misses;
  check_int "one hit" 1 stats.Cache.hits

let two_rel_db () =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:1;
  ignore (Database.insert db "R" [| Value.int 1 |]);
  ignore (Database.insert db "R" [| Value.int 2 |]);
  ignore (Database.insert db "S" [| Value.int 1 |]);
  db

(* With no invalidation hook, the key alone decides: an insert into a
   relation the answer does not read (T: exogenous, not mentioned)
   leaves it warm, and one into a relation it reads (S: endogenous, so
   its facts are players) re-solves to the fresh answer. *)
let content_keys_decide_hits () =
  let db = two_rel_db () in
  Database.declare db "T" ~kind:Database.Exogenous ~arity:1;
  ignore (Database.insert db "T" [| Value.int 1 |]);
  let q = Db_parser.parse_query "R(x)" in
  let cache = Cache.create () in
  let solves = ref 0 in
  let cached () =
    Cache.bindings
      (fst
         (Dichotomy.shapley_cached ~cache db q ~on_miss:(fun solve ->
              incr solves;
              solve ())))
  in
  let cold = cached () in
  check_int "the cold request solves" 1 !solves;
  ignore (Database.insert db "T" [| Value.int 2 |]);
  check_shap "an insert into T keeps the answer" cold (cached ());
  check_int "...warm: no solve" 1 !solves;
  let s2 = Option.get (Database.insert db "S" [| Value.int 2 |]) in
  let after = cached () in
  check_int "an insert into S re-solves" 2 !solves;
  check_shap "the re-solved answer is fresh" (fst (Dichotomy.shapley db q))
    after;
  check_bool "S's new fact is a player of value 0" true
    (Rat.is_zero (List.assoc s2 after))

let insert_then_delete_exact () =
  let db = two_rel_db () in
  let q = Db_parser.parse_query "R(x), S(x)" in
  let cache = Cache.create () in
  let cached () =
    Cache.bindings (fst (Dichotomy.shapley_cached ~cache db q))
  in
  let before = cached () in
  check_shap "cached before mutation" (fst (Dichotomy.shapley db q)) before;
  let tup = [| Value.int 2 |] in
  ignore (Database.insert db "S" tup);
  let inserted = cached () in
  check_shap "cached after insert" (fst (Dichotomy.shapley db q)) inserted;
  check_bool "values actually changed" false (before = inserted);
  check_bool "remove finds the tuple" true (Database.remove db "S" tup);
  check_bool "remove is idempotent" false (Database.remove db "S" tup);
  let after = cached () in
  check_shap "cached after delete" (fst (Dichotomy.shapley db q)) after;
  check_shap "delete restored the original answer" before after

let compiled_dnf_cached () =
  let db, q = random_q0_db ~a:3 ~b:3 ~density:0.6 ~seed:11 in
  let cache = Cache.create () in
  let fresh, fs = Dichotomy.shapley db q in
  let cold, cs = Dichotomy.shapley_cached ~cache db q in
  let warm, ws = Dichotomy.shapley_cached ~cache db q in
  let cold = Cache.bindings cold and warm = Cache.bindings warm in
  Alcotest.check solver "non-hierarchical solver" Dichotomy.Compiled_dnf fs;
  Alcotest.check solver "cold solver agrees" fs cs;
  Alcotest.check solver "warm solver agrees" fs ws;
  check_shap "cold = fresh" fresh cold;
  check_shap "warm = fresh" fresh warm

(* A cold solve stores one answer, one rational per player, and nothing
   else: the Theorem 4.1 pass needs nothing in between. *)
let cold_solve_fills_one_answer () =
  List.iter
    (fun (db, q) ->
      let cache = Cache.create () in
      let cold, cs = Dichotomy.shapley_cached ~cache db q in
      let cold = Cache.bindings cold in
      let fresh, fs = Dichotomy.shapley db q in
      Alcotest.check solver "solver" fs cs;
      check_shap "cold = fresh" fresh cold;
      let stats = Cache.stats cache in
      check_int "one miss" 1 stats.Cache.misses;
      check_int "one rational per player" (List.length fresh)
        stats.Cache.resident)
    [ (example13_db (), Db_parser.parse_query "R1(x), R2(x)");
      random_q0_db ~a:3 ~b:3 ~density:0.6 ~seed:11 ]

(* The compile on a miss is the [cache.compile] oracle call, over the
   whole player universe; a hit compiles nothing.  Bench E21 totals
   these calls: cold, warm, then after an endogenous insert. *)
let miss_ledgers_one_compile () =
  let db = example13_db () in
  let q = Db_parser.parse_query "R1(x), R2(x)" in
  let cache = Cache.create () in
  let compiles () = Obs.call_count ~oracle:"cache.compile" () in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore (Dichotomy.shapley_cached ~cache db q);
      check_int "the cold request compiles once" 1 (compiles ());
      check_int "over every player" 4
        (List.assoc "cache.compile" (Obs.aggregate ())).Obs.a_n_max;
      ignore (Dichotomy.shapley_cached ~cache db q);
      check_int "the warm request compiles nothing" 1 (compiles ());
      ignore (Database.insert db "R1" [| Value.int 3 |]);
      ignore (Dichotomy.shapley_cached ~cache db q);
      check_int "after an insert, one more compile" 2 (compiles ());
      check_int "over the grown universe" 5
        (List.assoc "cache.compile" (Obs.aggregate ())).Obs.a_n_max)

(* ------------------------------------------------------------------ *)
(* Key stability: cache keys are FNV-1a digests of value renderings, so
   both must stay byte-for-byte what they were when the keys were
   introduced. *)

let digests_pinned () =
  let d parts = Fingerprint.digest parts in
  Alcotest.(check string) "empty" "cbf29ce484222325" (d []);
  Alcotest.(check string) "one empty part" "af63bd4c8601b7df" (d [ "" ]);
  Alcotest.(check string) "a" "089be207b544f1e4" (d [ "a" ]);
  Alcotest.(check string) "ab|c" "ad22872f536e4705" (d [ "ab"; "c" ]);
  Alcotest.(check string) "a|bc" "401801fc84f3ca79" (d [ "a"; "bc" ]);
  Alcotest.(check string) "high bytes and NUL" "2575dd5c96eacbcb"
    (d [ "\xff\x00\xe2\x88\x80 unicode"; "R"; "(1,(x,-2))" ]);
  Alcotest.(check string) "add_int" "76aa60f505dfddca"
    Fingerprint.(to_hex (add_int (add_int empty 12) (-3)));
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:2;
  Database.declare db "S" ~kind:Database.Exogenous ~arity:1;
  ignore
    (Database.insert db "R"
       [| Value.int 1;
          Value.pair (Value.str "a")
            (Value.pair (Value.int (-2)) (Value.str "b c")) |]);
  ignore (Database.insert db "R" [| Value.int 2; Value.str "z" |]);
  ignore (Database.insert db "S" [| Value.int 1 |]);
  let q = Db_parser.parse_query "R(x,y), S(x)" in
  Alcotest.(check string) "result_key" "22545e5e5e4bae8c"
    (Db_fingerprint.result_key db q)

(* The integer 3 and the string '3' must not share a key, neither in a
   relation's rows nor as a query constant: through one cache, the
   second database or query must be answered as solved fresh. *)
let one_row_db rows =
  let db = Database.create () in
  List.iter
    (fun (r, v) ->
      Database.declare db r ~kind:Database.Endogenous ~arity:1;
      ignore (Database.insert db r [| v |]))
    rows;
  db

let answered_apart ~first:(db1, q1) ~second:(db2, q2) =
  check_bool "result keys differ" true
    (Db_fingerprint.result_key db1 q1 <> Db_fingerprint.result_key db2 q2);
  let cache = Cache.create () in
  ignore (Dichotomy.shapley_cached ~cache db1 q1);
  let fresh, _ = Dichotomy.shapley db2 q2 in
  let cached, _ = Dichotomy.shapley_cached ~cache db2 q2 in
  check_shap "second answered fresh" fresh (Cache.bindings cached)

let keys_tell_row_int_from_string () =
  let q = Db_parser.parse_query "R(x), S(x)" in
  answered_apart
    ~first:(one_row_db [ ("R", Value.int 3); ("S", Value.int 3) ], q)
    ~second:(one_row_db [ ("R", Value.int 3); ("S", Value.str "3") ], q)

let keys_tell_constant_int_from_string () =
  let db = one_row_db [ ("E", Value.int 3) ] in
  let q_int = Db_parser.parse_query "E(3)"
  and q_str = Db_parser.parse_query "E('3')" in
  check_bool "query digests differ" true
    (Db_fingerprint.query q_int <> Db_fingerprint.query q_str);
  answered_apart ~first:(db, q_int) ~second:(db, q_str)

(* A database's keys must be those of a database built fresh with the
   same rows after every mutation, although each relation is digested
   once per version. *)
let rebuilt db =
  let fresh = Database.create () in
  List.iter
    (fun r ->
      let kind = Database.kind_of db r in
      Database.declare fresh r ~kind ~arity:(Database.arity_of db r);
      List.iter
        (fun (st : Database.stored) ->
          match st.Database.lvar with
          | Some lvar ->
            Database.insert_with_var fresh r st.Database.values ~lvar
          | None -> ignore (Database.insert fresh r st.Database.values))
        (Database.tuples db r))
    (Database.relation_names db);
  fresh

let keys db q =
  List.map (Db_fingerprint.relation db) (Database.relation_names db)
  @ [ Db_fingerprint.result_key db q ]

let digests_follow_mutations () =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  Database.declare db "T" ~kind:Database.Exogenous ~arity:1;
  ignore (Database.insert db "R" [| Value.int 1 |]);
  ignore (Database.insert db "T" [| Value.int 1 |]);
  let q = Db_parser.parse_query "R(x), S(x,y), T(x)" in
  let check what db =
    Alcotest.(check (list string)) what (keys (rebuilt db) q) (keys db q)
  in
  let step what mutate =
    ignore (keys db q);
    (* every digest is stored now; the mutation must drop its own *)
    mutate ();
    check what db
  in
  step "insert (endogenous)" (fun () ->
      ignore (Database.insert db "S" [| Value.int 1; Value.int 2 |]));
  step "insert (exogenous)" (fun () ->
      ignore (Database.insert db "T" [| Value.int 2 |]));
  step "insert_with_var" (fun () ->
      Database.insert_with_var db "R" [| Value.int 7 |] ~lvar:40);
  step "remove" (fun () ->
      check_bool "removed" true (Database.remove db "R" [| Value.int 1 |]));
  step "remove (absent)" (fun () ->
      check_bool "absent" false (Database.remove db "R" [| Value.int 1 |]));
  (* A copy mutated apart from its source gets its own digest; the
     source keeps its own. *)
  let before = keys db q in
  let copy = Database.copy db in
  Alcotest.(check (list string)) "a copy starts equal" before (keys copy q);
  ignore (Database.insert copy "S" [| Value.int 7; Value.int 7 |]);
  check "the mutated copy" copy;
  check_bool "the copy's keys moved" true (keys copy q <> before);
  Alcotest.(check (list string)) "the source keeps its keys" before (keys db q);
  ignore (Database.remove db "T" [| Value.int 2 |]);
  check "the source mutated after the copy" db;
  check "the copy untouched by it" copy

let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map Value.int int;
        map Value.str (string_size ~gen:printable (int_range 0 12)) ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (3, map2 Value.pair (self (n - 1)) (self (n - 1))) ])

(* Queries whose string constants hold quotes, spaces, digits, commas
   and parentheses. *)
let gen_query =
  let open QCheck.Gen in
  let constant =
    oneof
      [ map Value.int int;
        map Value.str
          (string_size
             ~gen:(oneofl [ 'a'; 'b'; '3'; '\''; ' '; '('; ','; ')' ])
             (int_range 0 6)) ]
  in
  let term =
    oneof [ map (fun x -> Cq.V x) (oneofl [ "x"; "y" ]);
            map (fun v -> Cq.C v) constant ]
  in
  let atom =
    map3
      (fun rel args negated ->
        (if negated then Cq.negated_atom else Cq.atom) rel args)
      (oneofl [ "R"; "S" ]) (list_size (int_range 1 3) term) bool
  in
  map2 (fun a rest -> Cq.make (a :: rest))
    (map (fun a -> { a with Cq.negated = false }) atom)
    (list_size (int_range 0 2) atom)

let value_tests =
  [ dtest ~seed:33 ~count:200 "Value.to_string = Format rendering of pp"
      (QCheck.make ~print:(Format.asprintf "%a" Value.pp) gen_value)
      (fun v -> Value.to_string v = Format.asprintf "%a" Value.pp v) ]

let literal_tests =
  [ Alcotest.test_case "keys: row 3 and row '3' apart" `Quick
      keys_tell_row_int_from_string;
    Alcotest.test_case "keys: constant 3 and constant '3' apart" `Quick
      keys_tell_constant_int_from_string;
    dtest ~seed:34 ~count:200 "Cq.to_string reparses to an equal query"
      (QCheck.make ~print:Cq.to_string gen_query)
      (fun q ->
        (Db_parser.parse_query (Cq.to_string q)).Cq.atoms = q.Cq.atoms) ]

(* ------------------------------------------------------------------ *)
(* The differential harness: random interleavings of solves, inserts and
   deletes, with no invalidation call; after every step the cached
   pipeline must agree with a fresh solve bit-for-bit, at jobs = 1 and on
   the domain pool.  Content keys alone keep cached = fresh. *)

type op =
  | Insert of string * int list
  | Remove of string * int list
  | Solve of int

let pp_op = function
  | Insert (r, vs) ->
    Printf.sprintf "ins %s(%s)" r
      (String.concat "," (List.map string_of_int vs))
  | Remove (r, vs) ->
    Printf.sprintf "del %s(%s)" r
      (String.concat "," (List.map string_of_int vs))
  | Solve i -> Printf.sprintf "solve q%d" i

let query_pool =
  [| "R(x)"; "S(x,y)"; "R(x), S(x,y)"; "R(x), S(x,y), T(y)" |]

let parsed_pool = lazy (Array.map Db_parser.parse_query query_pool)

let gen_ops =
  let open QCheck.Gen in
  let value = int_range 1 3 in
  let op =
    frequency
      [ (3, map (fun v -> Insert ("R", [ v ])) value);
        (3, map2 (fun a b -> Insert ("S", [ a; b ])) value value);
        (2, map (fun v -> Insert ("T", [ v ])) value);
        (2, map (fun v -> Remove ("R", [ v ])) value);
        (2, map2 (fun a b -> Remove ("S", [ a; b ])) value value);
        (1, map (fun v -> Remove ("T", [ v ])) value);
        (6, map (fun i -> Solve i) (int_range 0 (Array.length query_pool - 1)))
      ]
  in
  list_size (int_range 3 10) op

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    gen_ops

let scenario_db () =
  let db = Database.create () in
  Database.declare db "R" ~kind:Database.Endogenous ~arity:1;
  Database.declare db "S" ~kind:Database.Endogenous ~arity:2;
  Database.declare db "T" ~kind:Database.Exogenous ~arity:1;
  ignore (Database.insert db "R" [| Value.int 1 |]);
  ignore (Database.insert db "S" [| Value.int 1; Value.int 1 |]);
  ignore (Database.insert db "T" [| Value.int 1 |]);
  db

(* Replay [ops]; returns the rendered (exact {num,den} strings) answer
   of every Solve.  Raises [QCheck.Test.fail_reportf] on any cached/fresh
   divergence. *)
let run_scenario ~jobs ~cache ops =
  Par.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) @@ fun () ->
  let db = scenario_db () in
  let queries = Lazy.force parsed_pool in
  let render shap =
    String.concat ";"
      (List.map
         (fun (i, v) -> Printf.sprintf "%d=%s" i (Rat.to_string v))
         (List.sort compare shap))
  in
  List.filter_map
    (fun op ->
      match op with
      | Insert (r, vs) ->
        let tup = Array.of_list (List.map Value.int vs) in
        if not (Database.mem db r tup) then
          ignore (Database.insert db r tup);
        None
      | Remove (r, vs) ->
        ignore (Database.remove db r (Array.of_list (List.map Value.int vs)));
        None
      | Solve i ->
        let q = queries.(i) in
        let cached, cs = Dichotomy.shapley_cached ~cache db q in
        let fresh, fs = Dichotomy.shapley db q in
        if cs <> fs then
          QCheck.Test.fail_reportf "solver mismatch on %s" query_pool.(i);
        let rc = render (Cache.bindings cached) and rf = render fresh in
        if rc <> rf then
          QCheck.Test.fail_reportf
            "cached <> fresh on %s\n  cached: %s\n  fresh:  %s"
            query_pool.(i) rc rf;
        Some rc)
    ops

let differential_tests =
  [ dtest ~seed:31 ~count:25
      "cached = fresh under random interleavings (jobs 1 = jobs 4)"
      arb_ops
      (fun ops ->
        let seq = run_scenario ~jobs:1 ~cache:(Cache.create ()) ops in
        let par = run_scenario ~jobs:4 ~cache:(Cache.create ()) ops in
        seq = par);
    dtest ~seed:32 ~count:15
      "cached = fresh under constant eviction (tiny capacity)"
      arb_ops
      (fun ops ->
        let full = run_scenario ~jobs:1 ~cache:(Cache.create ()) ops in
        let tiny =
          run_scenario ~jobs:1 ~cache:(Cache.create ~results:2 ()) ops
        in
        full = tiny) ]

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "lru: eviction follows recency" `Quick
      lru_eviction_order;
    Alcotest.test_case "lru: put replaces and bumps" `Quick lru_replace_bumps;
    Alcotest.test_case "lru: capacity must be positive" `Quick
      lru_bad_capacity;
    Alcotest.test_case "lru: eviction by weight drops whole entries" `Quick
      lru_evicts_by_weight;
    Alcotest.test_case "single-flight: stampede computes once" `Quick
      single_flight_stampede;
    Alcotest.test_case "single-flight: failure shared, flight dropped" `Quick
      single_flight_failure;
    Alcotest.test_case "cache: one tier, sized by create" `Quick
      sized_by_create;
    Alcotest.test_case "cache: shapley tier holds one answer, rendered once"
      `Quick shapley_tier_roundtrip;
    Alcotest.test_case
      "cache: an answer larger than the tier re-solves, stays exact" `Quick
      shapley_tier_oversized_answer;
    Alcotest.test_case "cache: concurrent misses single-flight" `Quick
      cache_stampede;
    Alcotest.test_case "cache: a rendering joiner fills rendered" `Quick
      rendering_joiner_fills_rendered;
    Alcotest.test_case "cache: metrics exported, evictions counted once"
      `Quick cache_metrics_exported;
    Alcotest.test_case "cache: cache_bytes counts resident elements" `Quick
      cache_bytes_gauge;
    Alcotest.test_case "dichotomy: cached = fresh (hierarchical)" `Quick
      dichotomy_cached_matches_fresh;
    Alcotest.test_case "dichotomy: content keys decide what an insert re-solves"
      `Quick content_keys_decide_hits;
    Alcotest.test_case "dichotomy: insert then delete stays exact" `Quick
      insert_then_delete_exact;
    Alcotest.test_case "dichotomy: cached = fresh (compiled-dnf)" `Quick
      compiled_dnf_cached;
    Alcotest.test_case "dichotomy: cold solve fills one answer" `Quick
      cold_solve_fills_one_answer;
    Alcotest.test_case "dichotomy: a miss ledgers one cache.compile call"
      `Quick miss_ledgers_one_compile;
    Alcotest.test_case "keys: digests pinned" `Quick digests_pinned;
    Alcotest.test_case "keys: one digest per relation version" `Quick
      digests_follow_mutations ]
  @ value_tests @ differential_tests @ literal_tests

(** Parallel fan-out tests.

    - [Pool]: deterministic result slots, jobs clamping, exception
      determinism (lowest failing index, all tasks still run), nested
      maps, empty inputs.
    - [Par]: the process-wide knob clamps and gates the pool.
    - The tentpole guarantee: for every reduction in the pipeline,
      results AND ledger aggregates are identical for jobs ∈ {1, 2, 4}.
      Wall-clock fields are excluded from the comparison (they are the
      only legitimately schedule-dependent output); raw ledgers are
      compared as multisets because arrival order is scheduling.
    - Tracing under jobs ≥ 2: seq stays contiguous and the stream
      agrees with the ledger. *)

open Helpers

let t name f = Alcotest.test_case name `Quick f

let iterations default =
  match Sys.getenv_opt "SHAPMC_QCHECK_COUNT" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

(* Like [Helpers.qtest], but deterministically seeded and env-scaled. *)
let dtest ~seed ~count name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 2025; seed |])
    (QCheck.Test.make ~count:(iterations count) ~name arb prop)

let universe n = List.init n succ

(* ------------------------------------------------------------------ *)
(* Pool *)

exception Task_failed of int

let pool_tests =
  [ t "map keeps result slots" (fun () ->
        let p = Pool.create ~jobs:4 in
        let xs = Array.init 100 (fun i -> i) in
        Alcotest.(check (array int))
          "squares in order"
          (Array.map (fun i -> i * i) xs)
          (Pool.map p (fun i -> i * i) xs));
    t "jobs clamp to 1..64" (fun () ->
        Alcotest.(check int) "0 -> 1" 1 (Pool.jobs (Pool.create ~jobs:0));
        Alcotest.(check int) "-3 -> 1" 1 (Pool.jobs (Pool.create ~jobs:(-3)));
        Alcotest.(check int) "4" 4 (Pool.jobs (Pool.create ~jobs:4));
        Alcotest.(check int) "9999 -> 64" 64
          (Pool.jobs (Pool.create ~jobs:9999)));
    t "empty and singleton inputs" (fun () ->
        let p = Pool.create ~jobs:4 in
        Alcotest.(check (array int)) "empty" [||] (Pool.map p succ [||]);
        Alcotest.(check (array int)) "singleton" [| 8 |]
          (Pool.map p succ [| 7 |]));
    t "lowest failing index wins, every task still runs" (fun () ->
        let p = Pool.create ~jobs:4 in
        let ran = Atomic.make 0 in
        let xs = Array.init 20 (fun i -> i) in
        (match
           Pool.map p
             (fun i ->
                Atomic.incr ran;
                if i >= 7 then raise (Task_failed i) else i)
             xs
         with
         | _ -> Alcotest.fail "expected Task_failed"
         | exception Task_failed i ->
           Alcotest.(check int) "index 7" 7 i);
        Alcotest.(check int) "all 20 tasks ran" 20 (Atomic.get ran));
    t "nested maps are correct" (fun () ->
        let p = Pool.create ~jobs:4 in
        let got =
          Pool.map p
            (fun i -> Pool.map p (fun j -> (10 * i) + j) [| 0; 1; 2 |])
            [| 0; 1; 2; 3 |]
        in
        Alcotest.(check (array (array int)))
          "inner results"
          (Array.init 4 (fun i -> Array.init 3 (fun j -> (10 * i) + j)))
          got) ]

let par_tests =
  [ t "knob clamps and restores" (fun () ->
        Fun.protect ~finally:(fun () -> Par.set_jobs 1) (fun () ->
            Par.set_jobs 0;
            Alcotest.(check int) "0 -> 1" 1 (Par.jobs ());
            Par.set_jobs 1000;
            Alcotest.(check int) "1000 -> 64" 64 (Par.jobs ());
            Par.set_jobs 4;
            Alcotest.(check (array int)) "map_n under the knob"
              [| 0; 1; 4; 9; 16 |]
              (Par.map_n (fun i -> i * i) 5))) ]

(* ------------------------------------------------------------------ *)
(* jobs-independence: results and ledger aggregates *)

(* Run [f] with the ledger live and a stream recording at [jobs];
   return its result together with every schedule-independent
   projection of the ledger and the stream's oracle and substitution
   events. *)
let with_jobs ~jobs f =
  let stream = Trace.create () in
  Obs.reset ();
  Obs.enable ();
  Obs.set_trace (Some stream);
  Par.set_jobs jobs;
  Fun.protect
    ~finally:(fun () ->
      Par.set_jobs 1;
      Obs.set_trace None;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
       let r = f () in
       let recorded kind =
         List.sort compare
           (List.filter_map
              (fun e ->
                 if e.Trace.kind = kind then
                   Some
                     ( e.Trace.name,
                       List.filter (fun (k, _) -> k <> "span") e.Trace.attrs )
                 else None)
              (Trace.events stream))
       in
       let calls = recorded Trace.Oracle in
       let aggs =
         List.map
           (fun (name, a) ->
              (name, a.Obs.a_calls, a.Obs.a_n_min, a.Obs.a_n_max,
               a.Obs.a_l_min, a.Obs.a_l_max, a.Obs.a_size_max))
           (Obs.aggregate ())
       in
       let spans =
         List.map (fun s -> (s.Obs.span_path, s.Obs.span_calls)) (Obs.spans ())
       in
       let substs = recorded Trace.Subst in
       (r, (Obs.call_count (), calls, aggs, spans, Obs.counters (), substs)))

let all_jobs = [ 1; 2; 4 ]

(* [agree ~run ~eq] checks that result and ledger projections coincide
   across [all_jobs]; ledger projections are compared structurally. *)
let agree ~run ~eq =
  match List.map (fun jobs -> run ~jobs) all_jobs with
  | [] -> true
  | (r0, l0) :: rest ->
    List.for_all (fun (r, l) -> eq r0 r && l0 = l) rest

let shap_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, x) (j, y) -> i = j && Rat.equal x y)
       (List.sort compare a) (List.sort compare b)

let jobs_property_tests =
  [ dtest ~seed:1 ~count:15 "shap: results and ledger independent of jobs"
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         agree ~eq:shap_eq ~run:(fun ~jobs ->
             with_jobs ~jobs (fun () ->
                 Pipeline.shap_via_count_oracle
                   ~oracle:Pipeline.dpll_count_oracle ~vars:(universe 3) f)));
    dtest ~seed:2 ~count:20 "kcounts: results and ledger independent of jobs"
      (arb_formula ~nvars:4 ~depth:4)
      (fun f ->
         agree ~eq:Kvec.equal ~run:(fun ~jobs ->
             with_jobs ~jobs (fun () ->
                 Pipeline.kcounts_via_count_oracle
                   ~oracle:Pipeline.dpll_count_oracle ~vars:(universe 4) f)));
    dtest ~seed:3 ~count:15 "pqe shap: results and ledger independent of jobs"
      (arb_formula ~nvars:3 ~depth:3)
      (fun f ->
         agree ~eq:shap_eq ~run:(fun ~jobs ->
             with_jobs ~jobs (fun () ->
                 Pipeline.shap_via_pqe_oracle
                   ~oracle:Pipeline.pqe_circuit_oracle ~vars:(universe 3) f)));
    (* roundtrip composes two parallel reductions (the inner one must
       degrade to sequential inside workers); keep the count fixed — it
       is by far the most oracle-hungry property here. *)
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 2025; 4 |])
      (QCheck.Test.make ~count:4
         ~name:"roundtrip_count: result and ledger independent of jobs"
         (arb_formula ~nvars:3 ~depth:3)
         (fun f ->
            agree ~eq:Bigint.equal ~run:(fun ~jobs ->
                with_jobs ~jobs (fun () ->
                    Pipeline.roundtrip_count ~vars:(universe 3) f)))) ]

(* ------------------------------------------------------------------ *)
(* Tracing under parallel recording *)

let trace_tests =
  [ t "jobs=4 trace: seq contiguous, stream = ledger" (fun () ->
        let stream = Trace.create () in
        Obs.reset ();
        Obs.enable ();
        Par.set_jobs 4;
        Obs.set_trace (Some stream);
        Fun.protect
          ~finally:(fun () ->
            Par.set_jobs 1;
            Obs.set_trace None;
            Obs.disable ();
            Obs.reset ())
          (fun () ->
             let _ =
               Pipeline.shap_via_count_oracle
                 ~oracle:Pipeline.dpll_count_oracle ~vars:(universe 3)
                 Helpers.example2_formula
             in
             let evs = Trace.events stream in
             List.iteri
               (fun i e ->
                  Alcotest.(check int) "seq contiguous" i e.Trace.seq)
               evs;
             let oracles =
               List.filter (fun e -> e.Trace.kind = Trace.Oracle) evs
             in
             (* Theorem 3.1's (n+1) + n² budget survives the fan-out *)
             Alcotest.(check int) "13 oracle events" 13 (List.length oracles);
             Alcotest.(check int) "stream = ledger" (Obs.call_count ())
               (List.length oracles))) ]

(* ------------------------------------------------------------------ *)
(* A capped stream under parallel recording: once the buffer overflows,
   the stored prefix is schedule-dependent (arrival order), but
   everything the cap preserves — the stored size, the drop count, the
   buffer's exact oracle aggregate and the ledger's aggregates — must
   stay identical across jobs. *)

let cap_tests =
  [ t "capped ledger: aggregates independent of jobs" (fun () ->
        let run ~jobs =
          let stream = Trace.create ~cap:8 () in
          Obs.reset ();
          Obs.enable ();
          Obs.set_trace (Some stream);
          Par.set_jobs jobs;
          Fun.protect
            ~finally:(fun () ->
              Par.set_jobs 1;
              Obs.set_trace None;
              Obs.disable ();
              Obs.reset ())
            (fun () ->
               let r =
                 Pipeline.shap_via_count_oracle
                   ~oracle:Pipeline.dpll_count_oracle ~vars:(universe 3)
                   Helpers.example2_formula
               in
               let aggs =
                 List.map
                   (fun (name, a) ->
                      (name, a.Obs.a_calls, a.Obs.a_n_max, a.Obs.a_l_max,
                       a.Obs.a_size_max))
                   (Obs.aggregate ())
               in
               ( r,
                 (Obs.call_count (), Trace.oracle_calls stream),
                 Trace.dropped stream,
                 List.length (Trace.events stream),
                 aggs ))
        in
        let r1, counts1, dropped1, stored1, aggs1 = run ~jobs:1 in
        (* 13 calls among many more events against a cap of 8: the cap
           really bites, and both aggregates stay exact *)
        Alcotest.(check (pair int int)) "calls exact past the cap" (13, 13)
          counts1;
        Alcotest.(check int) "stored at the cap" 8 stored1;
        Alcotest.(check bool) "drops counted" true (dropped1 > 13 - 8);
        List.iter
          (fun jobs ->
             let r, counts, dropped, stored, aggs = run ~jobs in
             Alcotest.(check bool) "result" true (shap_eq r1 r);
             Alcotest.(check (pair int int)) "call counts" counts1 counts;
             Alcotest.(check int) "dropped" dropped1 dropped;
             Alcotest.(check int) "stored" stored1 stored;
             Alcotest.(check bool) "aggregates" true (aggs1 = aggs))
          [ 2; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* The per-n tables ([Combi.per_n]) under domains: four domains ask for
   factorials, Eq. (2) rows and binomial rows in four random orders, past
   what earlier tests filled, and all get the values of one domain's
   running products and Pascal's rule. *)

let per_n_ns = List.init 401 Fun.id

(* c_k = 1 / (n·C(n−1,k)), and row n/2 by Pascal's rule; forced while
   the first domains run. *)
let per_n_expect =
  lazy
    (let factorial = ref Bigint.one and row = ref [| Bigint.one |] in
     List.map
       (fun n ->
          if n > 0 then factorial := Bigint.mul_int !factorial n;
          if n > 0 && n mod 2 = 0 then
            row :=
              Array.init ((n / 2) + 1) (fun k ->
                  if k = 0 || k = n / 2 then Bigint.one
                  else Bigint.add !row.(k - 1) !row.(k));
          ( !factorial,
            Kvec.make ~n:(n / 2) !row,
            if n = 0 then Rat.zero
            else
              Rat.make Bigint.one
                (Bigint.mul_int (Combi.binomial (n - 1) (n / 2)) n) ))
       per_n_ns)

let per_n_tests =
  [ dtest ~seed:5 ~count:3 "per-n tables: four domains in any order agree"
      QCheck.(int_bound 1_000_000)
      (fun seed ->
         let st = Random.State.make [| seed |] in
         let values n =
           ( Combi.factorial n,
             Kvec.all ~n:(n / 2),
             if n = 0 then Rat.zero else Combi.shapley_coeff ~n (n / 2) )
         in
         let domains =
           List.init 4 (fun _ ->
               let order =
                 QCheck.Gen.generate1 ~rand:st (QCheck.Gen.shuffle_l per_n_ns)
               in
               Domain.spawn (fun () ->
                   List.map snd
                     (List.sort compare
                        (List.map (fun n -> (n, values n)) order))))
         in
         let expect = Lazy.force per_n_expect in
         let same (f, r, c) (f', r', c') =
           Bigint.equal f f' && Kvec.equal r r' && Rat.equal c c'
         in
         List.for_all (fun d -> List.for_all2 same expect (Domain.join d))
           domains) ]

let suite =
  pool_tests @ par_tests @ jobs_property_tests @ trace_tests @ cap_tests
  @ per_n_tests

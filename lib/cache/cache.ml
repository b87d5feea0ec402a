let default_circuits = 128
let default_results = 8192

type answer = {
  facts : int array;
  values : Rat.t array;
  elements : string array;
}

let bindings a =
  List.init (Array.length a.facts) (fun i -> (a.facts.(i), a.values.(i)))

(* Logical hit/miss accounting per tier, separate from the Lru's own
   counters: a lookup the single-flight re-probes counts once here. *)
type tier_counters = {
  tname : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type t = {
  circuits : Circuit.node Lru.t;
  results : answer Lru.t;  (* result key -> answer, weighed by its facts *)
  c_circuit : tier_counters;
  c_shapley : tier_counters;
  fl_circuit : Circuit.node Single_flight.t;
  fl_shapley : answer Single_flight.t;
}

let labels tier = [ ("tier", tier) ]

let counters name = { tname = name; hits = Atomic.make 0; misses = Atomic.make 0 }

let on_evict tier _key weight =
  Metrics.inc ~labels:(labels tier) ~by:(float_of_int weight) "cache_evictions"

let create ?(circuits = default_circuits) ?(results = default_results) () =
  { circuits = Lru.create ~on_evict:(on_evict "circuit") ~capacity:circuits ();
    results = Lru.create ~on_evict:(on_evict "shapley") ~capacity:results ();
    c_circuit = counters "circuit";
    c_shapley = counters "shapley";
    fl_circuit = Single_flight.create ();
    fl_shapley = Single_flight.create () }

let set_gauges tier lru =
  let entries = float_of_int (Lru.weight lru) in
  let labels = labels tier in
  Metrics.set ~labels "cache_entries" entries;
  Metrics.set ~labels "cache_fill"
    (entries /. float_of_int (Lru.capacity lru))

let answer_bytes a =
  Array.fold_left (fun n e -> n + String.length e) 0 a.elements

let set_result_gauges t =
  set_gauges "shapley" t.results;
  Metrics.set ~labels:(labels "shapley") "cache_bytes"
    (float_of_int (Lru.fold (fun n a -> n + answer_bytes a) 0 t.results))

(* One logical lookup: the fast path probes [find]; on miss the caller
   funnels through the tier's single-flight, where leaders re-probe
   (another leader may have landed while we queued for the flight),
   compute, and publish.  Joiners count as hits: the computation they
   share ran once.  The latency histogram covers the caller-visible
   lookup, so leader samples include the fill — the hit/miss split of
   the same label set tells the two populations apart. *)
let account c ~hit ~t0 =
  let lab = labels c.tname in
  Metrics.observe ~labels:lab "cache_lookup_seconds"
    (Unix.gettimeofday () -. t0);
  Metrics.inc ~labels:lab (if hit then "cache_hits" else "cache_misses");
  Atomic.incr (if hit then c.hits else c.misses)

let tiered ~c ~flight ~probe ~store ~key compute =
  let t0 = Unix.gettimeofday () in
  match probe () with
  | Some v ->
    account c ~hit:true ~t0;
    v
  | None ->
    let led = ref false in
    let v =
      Single_flight.run flight key (fun () ->
          match probe () with
          | Some v -> v
          | None ->
            led := true;
            let v = compute () in
            store v;
            v)
    in
    account c ~hit:(not !led) ~t0;
    v

let circuit t ~key ?(tags = []) compute =
  tiered ~c:t.c_circuit ~flight:t.fl_circuit
    ~probe:(fun () -> Lru.find t.circuits key)
    ~store:(fun v ->
      Lru.put t.circuits ~tags key v;
      set_gauges "circuit" t.circuits)
    ~key compute

(* A caller that renders must not be served an answer stored by one
   that did not. *)
let shapley_all t ~key ?(tags = []) ?render solve =
  tiered ~c:t.c_shapley ~flight:t.fl_shapley
    ~probe:(fun () ->
      match Lru.find t.results key with
      | Some a
        when Option.is_none render
             || Array.length a.elements = Array.length a.facts ->
        Some a
      | _ -> None)
    ~store:(fun a ->
      Lru.put t.results ~tags ~weight:(max 1 (Array.length a.facts)) key a;
      set_result_gauges t)
    ~key
    (fun () ->
      let values = solve () in
      let facts = Array.of_list (List.map fst values)
      and values = Array.of_list (List.map snd values) in
      { facts;
        values;
        elements =
          (match render with
           | None -> [||]
           | Some render -> Array.map2 render facts values) })

let invalidate_tag t tag =
  let dropped =
    Lru.remove_tagged t.circuits tag + Lru.remove_tagged t.results tag
  in
  if dropped > 0 then
    Metrics.inc ~by:(float_of_int dropped) "cache_invalidations";
  set_gauges "circuit" t.circuits;
  set_result_gauges t;
  dropped

type tier_stats = {
  ts_hits : int;
  ts_misses : int;
  ts_evictions : int;
  ts_entries : int;
  ts_capacity : int;
}

let tier_stats c lru =
  { ts_hits = Atomic.get c.hits;
    ts_misses = Atomic.get c.misses;
    ts_evictions = Lru.evictions lru;
    ts_entries = Lru.weight lru;
    ts_capacity = Lru.capacity lru }

let stats t =
  [ ("circuit", tier_stats t.c_circuit t.circuits);
    ("shapley", tier_stats t.c_shapley t.results) ]

let default_circuits = 128
let default_results = 8192

(* Logical hit/miss accounting per tier, separate from the Lru's own
   counters: one shapley_all lookup touches the meta entry plus one Lru
   probe per fact, but counts as a single hit or miss here. *)
type tier_counters = {
  tname : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type t = {
  circuits : Circuit.node Lru.t;
  results : Rat.t Lru.t;  (* "<key>#<fact>" -> value *)
  meta : int list Lru.t;  (* key -> fact order *)
  c_circuit : tier_counters;
  c_shapley : tier_counters;
  fl_circuit : Circuit.node Single_flight.t;
  fl_shapley : (int * Rat.t) list Single_flight.t;
}

let labels tier = [ ("tier", tier) ]

let counters name = { tname = name; hits = Atomic.make 0; misses = Atomic.make 0 }

let on_evict tier _key = Metrics.inc ~labels:(labels tier) "cache_evictions"

(* The meta LRU reports no evictions: the shapley tier's evictions are
   its per-fact rationals', on /metrics as in [stats]. *)
let create ?(circuits = default_circuits) ?(results = default_results) () =
  { circuits = Lru.create ~on_evict:(on_evict "circuit") ~capacity:circuits ();
    results = Lru.create ~on_evict:(on_evict "shapley") ~capacity:results ();
    meta = Lru.create ~capacity:results ();
    c_circuit = counters "circuit";
    c_shapley = counters "shapley";
    fl_circuit = Single_flight.create ();
    fl_shapley = Single_flight.create () }

let set_gauges tier lru =
  let entries = float_of_int (Lru.length lru) in
  let labels = labels tier in
  Metrics.set ~labels "cache_entries" entries;
  Metrics.set ~labels "cache_fill"
    (entries /. float_of_int (Lru.capacity lru))

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

let tiered ~c ~lru ~flight ~probe ~store ~key compute =
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
            set_gauges c.tname lru;
            v)
    in
    account c ~hit:(not !led) ~t0;
    v

let circuit t ~key ?(tags = []) compute =
  tiered ~c:t.c_circuit ~lru:t.circuits ~flight:t.fl_circuit
    ~probe:(fun () -> Lru.find t.circuits key)
    ~store:(fun v -> Lru.put t.circuits ~tags key v)
    ~key compute

let fact_key key fact = Printf.sprintf "%s#%d" key fact

(* A result hit needs the meta entry and every per-fact rational: a
   partially evicted answer must re-solve, not answer short. *)
let probe_result t key =
  match Lru.find t.meta key with
  | None -> None
  | Some facts ->
    let rec gather acc = function
      | [] -> Some (List.rev acc)
      | f :: rest -> (
          match Lru.find t.results (fact_key key f) with
          | Some v -> gather ((f, v) :: acc) rest
          | None -> None)
    in
    gather [] facts

let store_result t ~tags key values =
  List.iter (fun (f, v) -> Lru.put t.results ~tags (fact_key key f) v) values;
  Lru.put t.meta ~tags key (List.map fst values)

let shapley_all t ~key ?(tags = []) solve =
  tiered ~c:t.c_shapley ~lru:t.results ~flight:t.fl_shapley
    ~probe:(fun () -> probe_result t key)
    ~store:(fun r -> store_result t ~tags key r)
    ~key solve

let invalidate_tag t tag =
  let dropped =
    Lru.remove_tagged t.circuits tag
    + Lru.remove_tagged t.results tag
    + Lru.remove_tagged t.meta tag
  in
  if dropped > 0 then
    Metrics.inc ~by:(float_of_int dropped) "cache_invalidations";
  set_gauges "circuit" t.circuits;
  set_gauges "shapley" t.results;
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
    ts_entries = Lru.length lru;
    ts_capacity = Lru.capacity lru }

let stats t =
  [ ("circuit", tier_stats t.c_circuit t.circuits);
    ("shapley", tier_stats t.c_shapley t.results) ]

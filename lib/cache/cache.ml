let default_results = 8192

type answer = {
  facts : int array;
  values : Rat.t array;
  elements : string array;
}

let bindings a =
  List.init (Array.length a.facts) (fun i -> (a.facts.(i), a.values.(i)))

(* Logical hit/miss accounting: a lookup the single-flight re-probes
   counts once.  Evictions are counted in facts by the LRU's
   [on_evict]. *)
type t = {
  lru : answer Lru.t;  (* result key -> answer, weighed by its facts *)
  flight : answer Single_flight.t;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_evicted : int Atomic.t;
}

let labels = [ ("tier", "shapley") ]

let create ?(results = default_results) () =
  let n_evicted = Atomic.make 0 in
  let on_evict _key facts =
    ignore (Atomic.fetch_and_add n_evicted facts);
    Metrics.inc ~labels ~by:(float_of_int facts) "cache_evictions"
  in
  { lru = Lru.create ~on_evict ~capacity:results ();
    flight = Single_flight.create ();
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_evicted }

let answer_bytes a =
  Array.fold_left (fun n e -> n + String.length e) 0 a.elements

let set_gauges t =
  let facts = float_of_int (Lru.weight t.lru) in
  Metrics.set ~labels "cache_entries" facts;
  Metrics.set ~labels "cache_fill"
    (facts /. float_of_int (Lru.capacity t.lru));
  Metrics.set ~labels "cache_bytes"
    (float_of_int (Lru.fold (fun n a -> n + answer_bytes a) 0 t.lru))

(* The latency histogram covers the caller-visible lookup, so leader
   samples include the fill — the hit/miss split of the same label set
   tells the two populations apart. *)
let account t ~hit ~t0 =
  Metrics.observe ~labels "cache_lookup_seconds" (Unix.gettimeofday () -. t0);
  Metrics.inc ~labels (if hit then "cache_hits" else "cache_misses");
  Atomic.incr (if hit then t.n_hits else t.n_misses)

let fill ?render solve =
  let values = solve () in
  let facts = Array.of_list (List.map fst values)
  and values = Array.of_list (List.map snd values) in
  { facts;
    values;
    elements =
      (match render with
       | None -> [||]
       | Some render -> Array.map2 render facts values) }

(* One logical lookup: the fast path probes the LRU; on a miss the
   caller funnels through the single-flight, where the leader re-probes
   (another leader may have landed while we queued for the flight),
   solves and publishes.  Joiners count as hits: the computation they
   share ran once.  A caller that renders must not be served an answer
   stored by one that did not, neither from the LRU nor by joining its
   flight: such a joiner looks up again, and fills rendered. *)
let shapley_all t ~key ?render solve =
  let t0 = Unix.gettimeofday () in
  let usable a =
    Option.is_none render || Array.length a.elements = Array.length a.facts
  in
  let probe () =
    match Lru.find t.lru key with
    | Some a when usable a -> Some a
    | _ -> None
  in
  let rec lookup () =
    match probe () with
    | Some a ->
      account t ~hit:true ~t0;
      a
    | None ->
      let led = ref false in
      let a =
        Single_flight.run t.flight key (fun () ->
            match probe () with
            | Some a -> a
            | None ->
              led := true;
              let a = fill ?render solve in
              Lru.put t.lru ~weight:(max 1 (Array.length a.facts)) key a;
              set_gauges t;
              a)
      in
      if usable a then begin
        account t ~hit:(not !led) ~t0;
        a
      end
      else lookup ()
  in
  lookup ()

type stats = {
  hits : int;
  misses : int;
  evicted : int;
  resident : int;
  capacity : int;
}

let stats t =
  { hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    evicted = Atomic.get t.n_evicted;
    resident = Lru.weight t.lru;
    capacity = Lru.capacity t.lru }

type 'v node = {
  nkey : string;
  nvalue : 'v;
  nweight : int;
  mutable prev : 'v node option;  (* toward the MRU end *)
  mutable next : 'v node option;  (* toward the LRU end *)
}

type 'v t = {
  lock : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  cap : int;  (* bound on [weight] *)
  mutable weight : int;  (* sum of the entries' weights *)
  on_evict : (string -> int -> unit) option;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
}

let create ?on_evict ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    cap = capacity;
    weight = 0;
    on_evict;
    head = None;
    tail = None }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* List surgery: callers hold the lock. *)

let unlink t n =
  (match n.prev with
   | Some p -> p.next <- n.next
   | None -> t.head <- n.next);
  (match n.next with
   | Some s -> s.prev <- n.prev
   | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with
   | Some h -> h.prev <- Some n
   | None -> t.tail <- Some n);
  t.head <- Some n

let capacity t = t.cap

let length t = locked t (fun () -> Hashtbl.length t.tbl)

let weight t = locked t (fun () -> t.weight)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some n ->
        unlink t n;
        push_front t n;
        Some n.nvalue)

let evicted t n = Option.iter (fun f -> f n.nkey n.nweight) t.on_evict

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.nkey;
  t.weight <- t.weight - n.nweight

let evict_over_capacity t =
  while t.weight > t.cap do
    match t.tail with
    | None -> assert false
    | Some lru ->
      drop t lru;
      evicted t lru
  done

(* An entry heavier than the whole capacity is evicted at once, before
   it can displace anything. *)
let put t ?(weight = 1) key v =
  if weight < 1 then invalid_arg "Lru.put: weight must be positive";
  locked t (fun () ->
      Option.iter (drop t) (Hashtbl.find_opt t.tbl key);
      let n =
        { nkey = key; nvalue = v; nweight = weight; prev = None; next = None }
      in
      if weight > t.cap then evicted t n
      else begin
        Hashtbl.add t.tbl key n;
        push_front t n;
        t.weight <- t.weight + weight;
        evict_over_capacity t
      end)

let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)

let fold f acc t =
  locked t (fun () -> Hashtbl.fold (fun _ n acc -> f acc n.nvalue) t.tbl acc)

let keys t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some n -> walk (n.nkey :: acc) n.next
      in
      walk [] t.head)

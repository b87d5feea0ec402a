type 'v node = {
  nkey : string;
  mutable nvalue : 'v;
  mutable ntags : string list;
  mutable prev : 'v node option;  (* toward the MRU end *)
  mutable next : 'v node option;  (* toward the LRU end *)
}

type 'v t = {
  lock : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  cap : int;
  on_evict : (string -> unit) option;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?on_evict ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    cap = capacity;
    on_evict;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0 }

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

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.nvalue)

let evict_over_capacity t =
  while Hashtbl.length t.tbl > t.cap do
    match t.tail with
    | None -> assert false
    | Some lru ->
      unlink t lru;
      Hashtbl.remove t.tbl lru.nkey;
      t.evictions <- t.evictions + 1;
      Option.iter (fun f -> f lru.nkey) t.on_evict
  done

let put t ?(tags = []) key v =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
       | Some n ->
         n.nvalue <- v;
         n.ntags <- tags;
         unlink t n;
         push_front t n
       | None ->
         let n =
           { nkey = key; nvalue = v; ntags = tags; prev = None; next = None }
         in
         Hashtbl.add t.tbl key n;
         push_front t n);
      evict_over_capacity t)

let remove t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> false
      | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl key;
        true)

let remove_tagged t tag =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun _ n acc -> if List.mem tag n.ntags then n :: acc else acc)
          t.tbl []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.tbl n.nkey)
        doomed;
      List.length doomed)

let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)

let keys t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some n -> walk (n.nkey :: acc) n.next
      in
      walk [] t.head)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)

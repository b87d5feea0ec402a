type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Span_begin | Span_end | Oracle | Subst | Phase | Counter

type event = {
  seq : int;
  at : float;
  depth : int;
  kind : kind;
  name : string;
  dur : float option;
  attrs : (string * value) list;
}

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Oracle -> "oracle"
  | Subst -> "subst"
  | Phase -> "phase"
  | Counter -> "counter"

let kind_of_name = function
  | "span_begin" -> Some Span_begin
  | "span_end" -> Some Span_end
  | "oracle" -> Some Oracle
  | "subst" -> Some Subst
  | "phase" -> Some Phase
  | "counter" -> Some Counter
  | _ -> None

let default_cap = 65536

(* Events are prepended and reversed on read-back; [stored] tracks the
   list length so the cap check is O(1).  All mutable state is guarded
   by the buffer's own [lock]. *)
type t = {
  cap : int;
  req : string option;
  t0 : float;
  lock : Mutex.t;
  mutable events_rev : event list;
  mutable stored : int;
  mutable dropped : int;
  mutable seq : int;
  mutable depth : int;
  mutable oracle_calls : int;
  mutable oracle_seconds : float;
}

let create ?(cap = default_cap) ?req () =
  { cap = max 0 cap;
    req;
    t0 = Unix.gettimeofday ();
    lock = Mutex.create ();
    events_rev = [];
    stored = 0;
    dropped = 0;
    seq = 0;
    depth = 0;
    oracle_calls = 0;
    oracle_seconds = 0. }

let locked b f =
  Mutex.lock b.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.lock) f

let emit b ?at ?dur ?(attrs = []) ~kind name =
  let wall = match at with Some a -> a | None -> Unix.gettimeofday () in
  let attrs =
    match b.req with Some id -> ("req", Str id) :: attrs | None -> attrs
  in
  locked b (fun () ->
      let t = wall -. b.t0 in
      let t = if t < 0.0 then 0.0 else t in
      let seq = b.seq in
      b.seq <- seq + 1;
      (* A Span_end is recorded at the depth of its matching begin. *)
      (match kind with
       | Span_end -> if b.depth > 0 then b.depth <- b.depth - 1
       | _ -> ());
      if b.stored < b.cap then begin
        b.events_rev <-
          { seq; at = t; depth = b.depth; kind; name; dur; attrs }
          :: b.events_rev;
        b.stored <- b.stored + 1
      end
      else b.dropped <- b.dropped + 1;
      match kind with
      | Span_begin -> b.depth <- b.depth + 1
      | Oracle ->
        b.oracle_calls <- b.oracle_calls + 1;
        b.oracle_seconds <-
          b.oracle_seconds
          +. (match dur with Some d -> Float.max 0. d | None -> 0.)
      | _ -> ())

let events b = List.rev (locked b (fun () -> b.events_rev))
let emitted b = locked b (fun () -> b.seq)
let dropped b = locked b (fun () -> b.dropped)
let oracle_calls b = locked b (fun () -> b.oracle_calls)
let oracle_seconds b = locked b (fun () -> b.oracle_seconds)

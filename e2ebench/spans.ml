(* The benchmark's own span recorder: spans around every call it makes
   into a layer, kept in memory and written once as Chrome trace_event
   JSON (loadable in Perfetto).  Spans inside the program are not
   recorded here; the daemon's side of a request comes from its access
   log. *)

module J = Tiny_json

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  rid : string;  (* request id, "" when the span belongs to no request *)
  tid : int;  (* lane in the trace viewer *)
}

type t = {
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  cap : int;
  next_id : int Atomic.t;
  lock : Mutex.t;
}

let create ?(cap = 20_000) () =
  { spans = [];
    kept = 0;
    dropped = 0;
    cap;
    next_id = Atomic.make 1;
    lock = Mutex.create () }

let fresh_id t = Atomic.fetch_and_add t.next_id 1

(* Record a finished span; past [cap] spans only the drop count grows,
   so a long traced window cannot exhaust memory. *)
let add t ?(id = 0) ?(parent = 0) ?(rid = "") ?(tid = 0) ~layer ~name t0 t1 =
  let id = if id = 0 then fresh_id t else id in
  Mutex.lock t.lock;
  if t.kept < t.cap then begin
    t.spans <- { id; parent; layer; name; t0; t1; rid; tid } :: t.spans;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1;
  Mutex.unlock t.lock;
  id

(* [time t ~layer name f] runs [f id] inside a span whose id is [id]
   (so nested calls can name it as their parent) and returns the result
   with the span's duration in seconds. *)
let time t ?parent ?rid ~layer name f =
  let id = fresh_id t in
  let t0 = Unix.gettimeofday () in
  let r = f id in
  let t1 = Unix.gettimeofday () in
  ignore (add t ~id ?parent ?rid ~layer ~name t0 t1);
  (r, t1 -. t0)

let to_chrome t =
  let spans = List.rev t.spans in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let us x = J.Float (Float.round ((x -. origin) *. 1e7) /. 10.) in
  let event s =
    J.Obj
      [ ("name", J.Str s.name);
        ("cat", J.Str s.layer);
        ("ph", J.Str "X");
        ("ts", us s.t0);
        ("dur", J.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.));
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ( "args",
          J.Obj
            [ ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("layer", J.Str s.layer);
              ("rid", J.Str s.rid) ] ) ]
  in
  J.to_string
    (J.Obj
       [ ("traceEvents", J.List (List.map event spans));
         ("displayTimeUnit", J.Str "ms");
         ( "otherData",
           J.Obj [ ("spans", J.Int t.kept); ("dropped", J.Int t.dropped) ] ) ])

let write_chrome t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome t))

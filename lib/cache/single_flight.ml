type 'v outcome = Running | Done of 'v | Failed of exn

type 'v flight = { mutable outcome : 'v outcome; mutable waiters : int }

type 'v t = {
  lock : Mutex.t;
  cond : Stdlib.Condition.t;  (* shared: flights are short-lived and few *)
  flights : (string, 'v flight) Hashtbl.t;
}

let create () =
  { lock = Mutex.create ();
    cond = Stdlib.Condition.create ();
    flights = Hashtbl.create 16 }

let finish t key fl outcome =
  Mutex.lock t.lock;
  fl.outcome <- outcome;
  (* Drop the flight now: waiters hold the record itself, and the next
     arrival must start a fresh computation (its cache re-check decides
     whether one is still needed). *)
  Hashtbl.remove t.flights key;
  Stdlib.Condition.broadcast t.cond;
  Mutex.unlock t.lock

let run t key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.flights key with
  | Some fl ->
    fl.waiters <- fl.waiters + 1;
    let rec await () =
      match fl.outcome with
      | Running ->
        Stdlib.Condition.wait t.cond t.lock;
        await ()
      | Done v ->
        Mutex.unlock t.lock;
        v
      | Failed e ->
        Mutex.unlock t.lock;
        raise e
    in
    await ()
  | None ->
    let fl = { outcome = Running; waiters = 0 } in
    Hashtbl.add t.flights key fl;
    Mutex.unlock t.lock;
    (match f () with
     | v ->
       finish t key fl (Done v);
       v
     | exception e ->
       finish t key fl (Failed e);
       raise e)

let in_flight t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.flights in
  Mutex.unlock t.lock;
  n

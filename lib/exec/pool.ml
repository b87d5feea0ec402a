(* A dependency-free fixed-size domain pool (OCaml 5 [Domain]s only).

   [map pool f xs] evaluates [f] on every element of [xs] and returns the
   results in input order.  Work is distributed dynamically: a shared
   atomic cursor hands out indices, so uneven task costs (oracle calls on
   instances of very different sizes) still balance across workers.

   Guarantees:

   - deterministic result ordering: slot [i] of the output is always
     [f xs.(i)], however the indices were scheduled;
   - exception capture/re-raise: if tasks raise, the exception of the
     LOWEST failing index is re-raised in the caller (with its original
     backtrace), so failures are independent of scheduling; the remaining
     tasks still run to completion (workers drain the cursor either way —
     oracle tasks are pure, so there is nothing to cancel);
   - graceful fallback: with [jobs = 1], a single-element input, or when
     called from inside another [map] (nested fan-outs), the tasks run in
     the caller's domain, in ascending index order — byte-identical to a
     plain sequential loop;
   - bounded domains: at most [jobs - 1] domains are spawned per [map]
     (the caller works too) and all are joined before [map] returns.  The
     nested-call fallback keeps the process-wide domain count at one
     pool's worth even when parallel reductions compose. *)

type t = { jobs : int }

(* [Domain.spawn] refuses past ~128 live domains; stay well below. *)
let max_jobs = 64

let create ~jobs = { jobs = max 1 (min jobs max_jobs) }

let jobs t = t.jobs

(* True while the current domain is executing pool tasks; nested [map]s
   fall back to in-caller execution instead of spawning more domains. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let sequential f xs = Array.map f xs

let as_worker body =
  let was = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker was) body

let now = Unix.gettimeofday

(* Per-worker utilization accounting, only on the [Obs.enabled] path:
   busy = Σ task durations, idle = worker wall − busy (cursor contention
   and spawn skew), job-wait = task start − map start (queueing delay).
   Everything goes into [Metrics], NOT into Obs counters/ledgers, so the
   recorded oracle streams stay jobs-independent.  Histograms are built
   locally (no lock per task) and merged once per worker. *)
let flush_worker_metrics ~wid ~busy ~wall ~tasks ~h_task ~h_wait =
  let open Shapmc_obs in
  let wl = [ ("worker", string_of_int wid) ] in
  Metrics.inc ~labels:wl ~by:busy "pool_worker_busy_seconds";
  Metrics.inc ~labels:wl ~by:(Float.max 0. (wall -. busy))
    "pool_worker_idle_seconds";
  Metrics.inc ~labels:wl ~by:(float_of_int tasks) "pool_worker_tasks";
  Metrics.merge_histogram "pool_task_seconds" h_task;
  Metrics.merge_histogram "pool_job_wait_seconds" h_wait

let map t f xs =
  let n = Array.length xs in
  let w = min t.jobs n in
  if w <= 1 || Domain.DLS.get in_worker then sequential f xs
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let observing = Shapmc_obs.Obs.enabled () in
    let t_map0 = if observing then now () else 0. in
    let run_tasks () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let r =
            try Ok (f xs.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          (* distinct slots: no two workers ever share an index *)
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    let run_tasks_observed wid =
      let open Shapmc_obs in
      let t_w0 = now () in
      let busy = ref 0. and tasks = ref 0 in
      let h_task = Histogram.create () and h_wait = Histogram.create () in
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let t0 = now () in
          Histogram.observe h_wait (Float.max 0. (t0 -. t_map0));
          let r =
            try Ok (f xs.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          let dt = Float.max 0. (now () -. t0) in
          busy := !busy +. dt;
          incr tasks;
          Histogram.observe h_task dt;
          loop ()
        end
      in
      loop ();
      flush_worker_metrics ~wid ~busy:!busy
        ~wall:(Float.max 0. (now () -. t_w0))
        ~tasks:!tasks ~h_task ~h_wait
    in
    let worker wid () =
      if observing then run_tasks_observed wid else run_tasks ()
    in
    let domains =
      List.init (w - 1) (fun k ->
          Domain.spawn (fun () -> as_worker (worker (k + 1))))
    in
    (* The caller is the w-th worker; its exceptions are captured like any
       other task's, so join always runs. *)
    as_worker (worker 0);
    List.iter Domain.join domains;
    if observing then begin
      let open Shapmc_obs in
      Metrics.inc "pool_maps";
      Metrics.inc ~by:(Float.max 0. (now () -. t_map0)) "pool_map_seconds";
      Metrics.set "pool_jobs" (float_of_int t.jobs)
    end;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* cursor handed out every index *))
      results
  end

(* ------------------------------------------------------------------ *)
(* Persistent executor: long-lived workers over a FIFO queue.          *)

module Exec = struct
  type t = {
    e_jobs : int;
    queue : (unit -> unit) Queue.t;
    lock : Mutex.t;
    work_cv : Condition.t;  (* signalled on submit and on shutdown *)
    mutable stopping : bool;
    mutable running : int;  (* tasks currently executing *)
    mutable workers : unit Domain.t list;
    mutable joined : bool;
  }

  let worker t () =
    let rec loop () =
      Mutex.lock t.lock;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.work_cv t.lock
      done;
      (* Drain what is already queued even when stopping: shutdown is
         graceful, not abortive. *)
      if Queue.is_empty t.queue then Mutex.unlock t.lock
      else begin
        let task = Queue.pop t.queue in
        t.running <- t.running + 1;
        Mutex.unlock t.lock;
        (try as_worker task
         with _ -> Shapmc_obs.Metrics.inc "pool_exec_task_errors");
        Mutex.lock t.lock;
        t.running <- t.running - 1;
        Mutex.unlock t.lock;
        loop ()
      end
    in
    loop ()

  let create ~jobs =
    let jobs = max 1 (min jobs max_jobs) in
    let t =
      { e_jobs = jobs;
        queue = Queue.create ();
        lock = Mutex.create ();
        work_cv = Condition.create ();
        stopping = false;
        running = 0;
        workers = [];
        joined = false }
    in
    t.workers <- List.init jobs (fun _ -> Domain.spawn (worker t));
    t

  let jobs t = t.e_jobs

  (* Like [Par.map], a submission captures the caller's Obs context
     and re-installs it in the worker: spans opened by the task nest
     under the submitter's path instead of hanging off a worker root,
     and its events keep flowing into the submitter's request buffer
     across the domain hop. *)
  let submit t task =
    let ctx = Shapmc_obs.Obs.context () in
    let task () = Shapmc_obs.Obs.with_context ctx task in
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      false
    end
    else begin
      Queue.push task t.queue;
      Condition.signal t.work_cv;
      Mutex.unlock t.lock;
      true
    end

  let pending t =
    Mutex.lock t.lock;
    let p = Queue.length t.queue + t.running in
    Mutex.unlock t.lock;
    p

  let shutdown ?deadline t =
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.lock;
    let until =
      match deadline with None -> None | Some d -> Some (now () +. d)
    in
    let rec drain () =
      if pending t = 0 then true
      else
        match until with
        | Some u when now () >= u -> false
        | _ ->
          Unix.sleepf 0.002;
          drain ()
    in
    let drained = drain () in
    if drained && not t.joined then begin
      (* Queue empty and nothing running: every worker is exiting (the
         broadcast above woke any waiter), so these joins return. *)
      List.iter Domain.join t.workers;
      t.joined <- true
    end;
    drained
end

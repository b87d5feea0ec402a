(** A dependency-free fixed-size domain pool (OCaml 5).

    [map] fans a pure task out over a bounded set of worker domains with
    dynamic load balancing, deterministic result ordering and exception
    capture/re-raise.  With [jobs = 1] (or from inside another [map]) it
    degrades to an in-caller sequential loop, byte-identical to
    [Array.map]. *)

type t

(** [create ~jobs] is a pool of [jobs] workers, clamped to [1..64]. *)
val create : jobs:int -> t

val jobs : t -> int

(** [map t f xs] is [Array.map f xs], evaluated by up to [jobs t] domains
    (the caller included).  Results keep their input slots.  If one or
    more tasks raise, every task still runs, and the exception of the
    lowest failing index is re-raised with its original backtrace —
    failure behavior is independent of scheduling.  Nested calls from
    inside a task run sequentially in the calling worker, so composed
    parallel reductions never oversubscribe the machine.

    When [Obs.enabled], each parallel [map] additionally records pool
    utilization into [Metrics.default]: per-worker
    [pool_worker_busy_seconds] / [pool_worker_idle_seconds] /
    [pool_worker_tasks] counters (labeled [worker=0] for the caller) and
    [pool_task_seconds] / [pool_job_wait_seconds] histograms, plus
    [pool_maps] / [pool_map_seconds] / [pool_jobs] totals.  These go to
    the metrics registry only — Obs ledgers, counters and spans are
    untouched, so recorded oracle streams remain jobs-independent. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** A persistent executor: long-lived worker domains draining a FIFO
    task queue.  Where {!map} is a batch fan-out (spawn, work, join),
    [Exec] keeps its domains alive between submissions — the shape a
    server needs to dispatch independent requests as they arrive.

    Tasks run with the pool's nested-fan-out flag set, so a {!map} (or
    [Par.map]) issued from inside a task degrades to the sequential
    loop instead of oversubscribing the machine: an executor of [jobs]
    workers never runs on more than [jobs] domains. *)
module Exec : sig
  type t

  (** [create ~jobs] spawns [jobs] worker domains (clamped to
      [1..64]). *)
  val create : jobs:int -> t

  val jobs : t -> int

  (** [submit t task] enqueues [task]; returns [false] (without
      enqueuing) once {!shutdown} has been called.  The submitter's
      {!Shapmc_obs.Obs.context} is captured at submission and
      re-installed around the task in the worker, so spans nest under
      the caller's path and events reach the caller's request buffer.
      A task that raises is dropped after recording a
      [pool_exec_task_errors] metric — worker domains never die to an
      exception. *)
  val submit : t -> (unit -> unit) -> bool

  (** Tasks queued plus tasks currently executing. *)
  val pending : t -> int

  (** [shutdown ?deadline t] stops accepting new tasks, lets the
      workers drain everything already queued, and waits up to
      [deadline] seconds (default: forever) for them to finish.
      Returns [true] — after joining every worker — if the queue
      drained in time; [false] leaves the stragglers running (the
      caller can unblock them, e.g. by closing their sockets, and call
      [shutdown] again — the call is idempotent). *)
  val shutdown : ?deadline:float -> t -> bool
end

(** Aggregation engine of [shapmc tail]: consume a JSONL access log in
    chunks (partial trailing lines carried across feeds, so it can
    follow a live file) and render a per-route summary — requests,
    4xx/5xx, wall-latency percentiles (through {!Histogram}), oracle
    calls/time, bytes.  Unparseable lines are counted, never fatal. *)

type t

val create : unit -> t

(** Consume a chunk; an unterminated last line is buffered until the
    next {!feed} (or {!finish}). *)
val feed : t -> string -> unit

(** Flush a buffered unterminated line (end of a one-shot read). *)
val finish : t -> unit

(** Lines consumed (parseable or not). *)
val lines : t -> int

val bad_lines : t -> int

(** The per-route table, routes sorted, with a TOTAL row. *)
val render : t -> string

(** Bounded chronological event buffers — the raw material of a trace.

    Where {!Obs} keeps {e aggregates} (how many oracle calls, how much
    time per span), a [Trace.t] keeps the {e chronology}: one event per
    span begin/end, oracle consultation, substitution, pipeline phase
    marker and counter update, each stamped with a monotone sequence
    number, a timestamp relative to the buffer's creation, and the
    span-nesting depth at which it happened.  A buffer's events can be
    exported to Chrome [trace_event] JSON (Perfetto) or compact JSONL by
    {!Trace_export}.

    The same type serves both consumers of events: the process-wide
    [--trace] stream ({!Obs.set_trace}) and each served request's buffer
    ({!Obs.with_request}), which stamps every event with a
    [("req", Str id)] attribute.  Only {!Obs} emits into buffers.

    A buffer is bounded: once [cap] events have been stored, further
    events are counted in {!dropped} but not kept, so tracing a long run
    cannot grow memory without bound.  The kept prefix stays
    chronological, and the oracle aggregates ({!oracle_calls},
    {!oracle_seconds}) stay exact past the cap.

    Every buffer has its own mutex, so [seq] stays strictly monotone and
    the event list never tears when pool workers emit concurrently
    ([--jobs]); [depth] reflects the buffer's begin/end balance — exact
    when emission is sequential, best-effort otherwise. *)

(** Attribute values carried by events. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Span_begin  (** a {!Obs.with_span} region opened *)
  | Span_end  (** the matching region closed *)
  | Oracle  (** one counting/Shapley/PQE-oracle consultation *)
  | Subst  (** one OR/AND-substitution (Lemma 9 witness) *)
  | Phase  (** an instant pipeline-phase marker *)
  | Counter  (** a named counter was bumped; its [value] attribute is
                 the increment, not the running total *)

type event = {
  seq : int;  (** monotone sequence number, starting at 0 *)
  at : float;  (** seconds since {!create} (clamped to be [>= 0]) *)
  depth : int;  (** span-nesting depth; [Span_end] is recorded at the
                    depth of its matching [Span_begin] *)
  kind : kind;
  name : string;  (** span/oracle/phase/counter name or subst kind *)
  dur : float option;  (** wall-clock duration in seconds ([Oracle]
                           events; [None] elsewhere) *)
  attrs : (string * value) list;  (** key/value payload, e.g. [n], [l],
                                      [size], [lemma] on oracle events *)
}

val kind_name : kind -> string
(** Stable lowercase name ("span_begin", "oracle", ...) used by the
    export formats. *)

val kind_of_name : string -> kind option

(** {1 Buffers} *)

type t

val default_cap : int
(** 65536 events. *)

val create : ?cap:int -> ?req:string -> unit -> t
(** [create ()] is an empty buffer whose clock starts now, storing at
    most [cap] events (default {!default_cap}; [0] keeps only the
    aggregates).  With [req], every event is stamped with
    [("req", Str req)]. *)

val emit :
  t -> ?at:float -> ?dur:float -> ?attrs:(string * value) list ->
  kind:kind -> string -> unit
(** [emit b ~kind name] records one event.  [at] is an absolute
    [Unix.gettimeofday] stamp (defaults to now) converted to
    buffer-relative seconds; pass the start time of a timed region so
    the event sits where the work began. *)

(** {1 Read-back} *)

val events : t -> event list
(** Stored events in chronological order. *)

val emitted : t -> int
(** Events emitted, stored and dropped. *)

val dropped : t -> int
(** Events discarded because the buffer was full. *)

val oracle_calls : t -> int
(** [Oracle] events emitted (exact past the cap). *)

val oracle_seconds : t -> float
(** Sum of their durations (exact past the cap). *)

(** Serialization of a {!Trace} event stream.

    Two formats:

    - {b Chrome [trace_event] JSON} ({!chrome}): a [{"traceEvents":
      [...]}] document loadable in Perfetto ({{:https://ui.perfetto.dev}
      ui.perfetto.dev}) or [chrome://tracing].  Spans become B/E pairs,
      oracle calls become X (complete) slices with their duration,
      phases and substitutions become instant events, counters become C
      events (plotted as a counter track).  Timestamps are microseconds
      since trace start.

    - {b JSONL} ({!jsonl}): one compact JSON object per line with the
      full event payload ([seq], [t], [depth], [kind], [name], optional
      [dur], [attrs]).  This format round-trips: {!events_of_jsonl}
      reads it back, so a saved trace can be re-rendered later
      ([shapmc trace-report]).

    Both are written through {!Tiny_json}: floats round-trip, and
    non-finite values print as [null]. *)

val chrome : Trace.event list -> string

val jsonl : Trace.event list -> string

val event_of_json : Tiny_json.t -> Trace.event
(** @raise Failure on a malformed event object. *)

val event_to_json : Trace.event -> Tiny_json.t
(** One {!jsonl} line before printing, so
    [event_of_json (event_to_json e) = e] for finite floats. *)

val events_of_jsonl : string -> Trace.event list
(** Parse a whole JSONL document (blank lines skipped).
    @raise Failure with a line number on malformed input. *)

(** What a bounded buffer knows exactly past its cap: the events it
    dropped, and its oracle calls and their seconds ({!Trace.dropped},
    {!Trace.oracle_calls}, {!Trace.oracle_seconds}). *)
type totals = { dropped : int; oracle_calls : int; oracle_seconds : float }

val write_file : path:string -> Trace.t -> unit
(** Write the buffer's events to [path]; a [.jsonl] suffix selects the
    JSONL format, anything else gets Chrome [trace_event] JSON.  JSONL
    files start with one meta line [{"meta":"shapmc.trace","version":2,
    "stored":K,"dropped":D,"oracle_calls":C,"oracle_seconds":S}] carrying
    the buffer's {!totals}; readers skip meta lines, so the event payload
    still round-trips. *)

val read_jsonl_file_full : string -> Trace.event list * totals option
(** The events of a JSONL file and the {!totals} of its meta line
    ([None] when it has none, or one without them). *)

val report : ?totals:totals -> ?percentiles:bool -> Trace.event list -> string
(** Human-readable rendering of a stream: an indented chronological
    timeline (two spaces per nesting depth) followed by per-phase
    aggregates (events and oracle calls/time attributed to the most
    recent phase marker), per-oracle totals (the same counts as the
    [--stats] ledger), and per-span totals.  When [totals] reports
    dropped events, the report opens with a banner: the timeline and
    the totals below it cover the stored events only, and the run's
    exact oracle calls and seconds are printed there.  [percentiles]
    appends per-(oracle, lemma, arity) latency percentile rows: the
    oracle events replayed into a fresh {!Metrics.registry} under
    [oracle_seconds{oracle,lemma,l}] and printed by
    {!Metrics.oracle_latency}, the table [--profile] prints. *)

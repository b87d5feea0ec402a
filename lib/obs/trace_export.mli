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

val write_file : ?dropped:int -> path:string -> Trace.event list -> unit
(** Write to [path]; a [.jsonl] suffix selects the JSONL format,
    anything else gets Chrome [trace_event] JSON.  JSONL files start
    with one meta line [{"meta":"shapmc.trace","version":1,"stored":K,
    "dropped":D}] recording how many events the bounded buffer dropped
    ([dropped], default [0]); readers skip meta lines, so the event
    payload still round-trips. *)

val read_jsonl_file_full : string -> Trace.event list * int
(** The events of a JSONL file and the [dropped] count from its meta
    line ([0] when the file has none). *)

val report :
  ?dropped:int -> ?percentiles:bool -> Trace.event list -> string
(** Human-readable rendering of a stream: an indented chronological
    timeline (two spaces per nesting depth) followed by per-phase
    aggregates (events and oracle calls/time attributed to the most
    recent phase marker), per-oracle totals (the same counts as the
    [--stats] ledger), and per-span totals.  When [dropped > 0] the
    report opens with a warning banner (the timeline is truncated but
    ledger aggregates stayed exact).  [percentiles] appends per-
    (oracle, lemma, arity) latency percentile rows rebuilt from the
    oracle events through {!Histogram}. *)

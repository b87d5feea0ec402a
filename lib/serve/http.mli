(** A minimal HTTP/1.1 message layer: an incremental, never-raising
    request parser, a response printer and a buffered response writer.
    Hand-rolled in the spirit of [Tiny_json] — just enough protocol for
    the [shapmc serve] daemon, no external dependencies.

    The parser is a pure function of the bytes fed so far (plus an
    end-of-stream mark): feeding one byte at a time, in arbitrary
    chunks, or all at once reaches the same {!outcome}.  It never
    raises; every malformed input maps to a 4xx {!Reject}
    classification, and the {!Limits.t} byte caps are enforced exactly
    at their boundaries. *)

type meth = GET | POST | HEAD | PUT | DELETE | Other of string

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;  (** raw request-target as sent *)
  path : string;  (** percent-decoded path, query string removed *)
  query : (string * string) list;  (** decoded query parameters *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;
      (** names lowercased, in arrival order *)
  body : string;
}

(** First value of header [name] (give it lowercased). *)
val header : request -> string -> string option

(** Does the client want the connection kept open after this exchange?
    HTTP/1.1 defaults to yes, HTTP/1.0 to no; an explicit
    [Connection: close] / [keep-alive] header overrides. *)
val wants_keep_alive : request -> bool

(** {1 Incremental parsing} *)

type parser_

type outcome =
  | Incomplete  (** more bytes (or {!eof}) needed *)
  | Request of request
  | Reject of int * string
      (** 4xx classification: 400 malformed / header cap / truncated,
          413 declared body over the cap *)

val create : limits:Limits.t -> parser_

(** [feed p bytes] appends input.  Ignored once the outcome is
    terminal ({!Request} keeps post-request bytes as {!leftover}). *)
val feed : parser_ -> string -> unit

(** Mark end of stream: an incomplete request becomes a 400 reject. *)
val eof : parser_ -> unit

val poll : parser_ -> outcome

(** Total bytes fed so far — [0] distinguishes an idle connection
    (close silently) from a truncated request (reject). *)
val bytes_fed : parser_ -> int

(** After {!Request}: bytes that arrived beyond the request, owed to
    the next parser on this connection. *)
val leftover : parser_ -> string

(** After a 413 {!Reject}: declared body bytes the client has yet to
    send.  The server should read (and discard) up to this many bytes
    before closing so a mid-upload client sees the error response
    instead of a connection reset ("lingering close").  [0] for every
    other outcome. *)
val drain_hint : parser_ -> int

(** {1 Responses} *)

(** [render_response ~status ~body ()] prints a full HTTP/1.1 response:
    the head (status line, [Content-Length], [Connection:
    keep-alive]/[close] ([keep_alive] defaults to [false]), then
    [headers] verbatim; give [Content-Type] there), then the parts of
    [body] joined.  A body is the list of its parts, in order (a page
    body is its cached elements between a head and a tail), and its
    [Content-Length] is the sum of their lengths.  The daemon writes
    with {!write_response} instead, which sends the same bytes from the
    same head renderer; this one string is for tests and in-process
    replays. *)
val render_response :
  ?headers:(string * string) list ->
  ?keep_alive:bool ->
  status:int ->
  body:string list ->
  unit ->
  string

(** {2 Writing a response to a socket} *)

(** A connection's output: its socket and one buffer of
    {!write_buffer_size} bytes, allocated once with the connection and
    reused by each of its responses. *)
type writer

(** [16384] bytes: a warm page of about 10 KB leaves with its head in
    one write. *)
val write_buffer_size : int

val writer : Unix.file_descr -> writer

(** [write_response w ~status ~body ()] writes the bytes
    {!render_response} prints, without joining them: the head and then
    each part are copied into the buffer, which is written out when the
    next piece does not fit, and at the end; a part larger than the
    buffer is written straight from its string.  Returns the body's
    length, the [Content-Length] sent.

    A peer that closes ([EPIPE], [ECONNRESET], or a write of 0 bytes)
    ends the write silently; any other [Unix.Unix_error] (a send
    timeout) raises. *)
val write_response :
  writer ->
  ?headers:(string * string) list ->
  ?keep_alive:bool ->
  status:int ->
  body:string list ->
  unit ->
  int


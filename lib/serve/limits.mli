(** Request limits for the HTTP server.

    Every limit is enforced exactly at its boundary: a header section
    of [max_header_bytes] bytes parses, one more byte is rejected with
    400; a declared body of [max_body_bytes] is read, one more byte is
    rejected with 413 before any body byte arrives. *)

type t = {
  max_header_bytes : int;
      (** Size cap on the request line plus all header lines including
          the blank-line terminator (default 8192).  Exceeded → 400. *)
  max_body_bytes : int;
      (** Cap on the declared [Content-Length] (default 1048576).
          Exceeded → 413. *)
  read_timeout : float;
      (** Socket read timeout in seconds (default 10.).  A connection
          idle between requests is closed silently; a timeout
          mid-request answers 408 and closes. *)
  max_conn_requests : int;
      (** Keep-alive cap: requests answered on one connection before
          the server closes it (default 100). *)
}

val default : t

(** [validate t] accepts positive limits (a zero timeout would turn
    [SO_RCVTIMEO] off).  @raise Invalid_argument naming the [serve] flag
    of the first other one: ["--read-timeout must be positive, got 0"]. *)
val validate : t -> unit

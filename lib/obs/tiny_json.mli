(** A minimal JSON reader.

    Just enough JSON to read back what this codebase writes — trace
    JSONL lines, Chrome [trace_event] exports, [BENCH_results.json] —
    without an external dependency.  Numbers without a fraction or
    exponent part parse as {!Int} (falling back to {!Float} past the
    63-bit range); everything else follows RFC 8259, including
    [\uXXXX] escapes (decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> t
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is not.  @raise Failure with a position on malformed
    input. *)

val parse_opt : string -> t option

(** {1 Printing} — the escaping-correct serializer every exporter and
    the HTTP server route their JSON through. *)

val to_string : t -> string
(** Minified serialization.  [parse (to_string v) = v] for every value
    whose floats are finite: strings escape the double quote, [\\] and all control
    characters (named escapes for [\n]/[\t]/[\r], [\uXXXX] otherwise)
    and pass non-ASCII bytes through untouched; an integral {!Float}
    prints with a trailing [.0] so it reads back as {!Float}, not
    {!Int}.  Non-finite floats have no JSON representation and print as
    [null]. *)

(** {1 Accessors} — total lookups returning [option]. *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] on missing field or non-object. *)

val to_int : t -> int option
(** {!Int} directly; an integral {!Float} also converts. *)

val to_float : t -> float option
(** {!Float} or {!Int}. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

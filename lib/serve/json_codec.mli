(** JSON plumbing for the API: responses rendered through the
    escaping-correct {!Tiny_json.to_string} serializer, exact-rational
    encoding, and total request-body readers whose failures are
    ready-to-send 400 responses. *)

val json_response :
  ?status:int -> ?headers:(string * string) list -> Tiny_json.t ->
  Router.response
(** Serialize with a trailing newline and [Content-Type:
    application/json]: the body is two parts, the JSON text and
    ["\n"]. *)

val concat_response : string list -> Router.response
(** A 200 JSON response whose body is [parts], kept as they are: JSON
    text already rendered, whose concatenation ends in the newline
    {!json_response} prints.  Nothing is copied; the writer sends the
    parts in order. *)

val error :
  ?headers:(string * string) list -> int -> string -> Router.response
(** {!Router.error_response}: [{"error":{"code":...,"message":...}}] *)

val rat : Rat.t -> Tiny_json.t
(** [{"num":"p","den":"q","float":f}] — [num]/[den] are decimal strings
    (exact far past float range), [float] a lossy rendering. *)

val tuple : Value.t array -> Tiny_json.t

val parse_body :
  Http.request -> (Tiny_json.t, Router.response) result

(** [field name conv ~must_be body] reads the required field [name] of
    [body] through [conv].  A missing field answers [missing field
    "name"]; a value [conv] refuses answers [field "name" must be
    <must_be>] (e.g. ["a string"], ["an integer"]). *)
val field :
  string -> (Tiny_json.t -> 'a option) -> must_be:string -> Tiny_json.t ->
  ('a, Router.response) result

(** [opt_field] is {!field} for an optional field: absent and [null]
    are [None]. *)
val opt_field :
  string -> (Tiny_json.t -> 'a option) -> must_be:string -> Tiny_json.t ->
  ('a option, Router.response) result

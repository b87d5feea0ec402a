(** JSON plumbing for the API: responses rendered through the
    escaping-correct {!Tiny_json.to_string} serializer, exact-rational
    encoding, and total request-body accessors whose failures are
    ready-to-send 400 responses. *)

val json_response :
  ?status:int -> ?headers:(string * string) list -> Tiny_json.t ->
  Router.response
(** Serialize with a trailing newline and [Content-Type:
    application/json]. *)

val concat_response : string list -> Router.response
(** A 200 JSON response whose body is the concatenation of [parts]:
    JSON text already rendered, ending in the newline {!json_response}
    prints.  The body is built in one allocation. *)

val error : int -> string -> Router.response
(** [{"error":{"code":...,"message":...}}] *)

val rat : Rat.t -> Tiny_json.t
(** [{"num":"p","den":"q","float":f}] — [num]/[den] are decimal strings
    (exact far past float range), [float] a lossy rendering. *)

val value : Value.t -> Tiny_json.t
val tuple : Value.t array -> Tiny_json.t

val parse_body :
  Http.request -> (Tiny_json.t, Router.response) result

val obj_field :
  string -> Tiny_json.t -> (Tiny_json.t, Router.response) result

val str_field : string -> Tiny_json.t -> (string, Router.response) result
val int_field : string -> Tiny_json.t -> (int, Router.response) result

val opt_str_field :
  string -> Tiny_json.t -> (string option, Router.response) result
(** Absent and [null] are [None]. *)

val opt_int_field :
  string -> Tiny_json.t -> (int option, Router.response) result

val opt_float_field :
  string -> Tiny_json.t -> (float option, Router.response) result
(** Absent and [null] are [None]; any JSON number is accepted. *)

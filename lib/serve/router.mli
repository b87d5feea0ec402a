(** Method + path routing with uniform 404/405/500 handling.

    Paths are matched segment-wise; a [:name] pattern segment binds any
    single non-empty concrete segment (e.g.
    ["/v1/debug/requests/:id"]).  A fixed path shadows a parameterized
    one matching the same request, regardless of registration order. *)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type route

val route : Http.meth -> string -> (Http.request -> response) -> route

(** [route_params meth pattern handler] — the handler additionally
    receives the [(name, segment)] bindings of the pattern's [:name]
    segments. *)
val route_params :
  Http.meth ->
  string ->
  ((string * string) list -> Http.request -> response) ->
  route

(** [error_response status message] — a JSON response whose body is
    [{"error":{"code":status,"message":message}}] and a newline, the
    one error shape of the service; [headers] follow the
    [Content-Type]. *)
val error_response :
  ?headers:(string * string) list -> int -> string -> response

(** [dispatch routes req] finds the route matching [req]'s path and
    method and runs its handler.  Returns the response paired with the
    route label used for metrics and logs: the route's {e pattern} (so
    label cardinality stays bounded), or ["unmatched"] for 404/405.
    An unknown path answers 404, a known path with the wrong method 405
    (with an [Allow] header), and a handler exception 500 — the
    exception never escapes (its message goes to stderr, not to the
    client). *)
val dispatch : route list -> Http.request -> string * response

(** Exposed for tests: [match_path ~pattern path] is [Some bindings]
    when [pattern] matches [path]. *)
val match_path :
  pattern:string -> string -> (string * string) list option

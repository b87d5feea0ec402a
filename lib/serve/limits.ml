type t = {
  max_header_bytes : int;
  max_body_bytes : int;
  read_timeout : float;
  max_conn_requests : int;
}

let default =
  { max_header_bytes = 8192;
    max_body_bytes = 1_048_576;
    read_timeout = 10.;
    max_conn_requests = 100 }

(* Each limit is named by the [serve] flag that sets it. *)
let validate t =
  let check flag ok shown =
    if not ok then
      invalid_arg (Printf.sprintf "--%s must be positive, got %s" flag shown)
  in
  let int flag v = check flag (v > 0) (string_of_int v) in
  int "max-header-bytes" t.max_header_bytes;
  int "max-body-bytes" t.max_body_bytes;
  check "read-timeout"
    (t.read_timeout > 0. && Float.is_finite t.read_timeout)
    (Printf.sprintf "%g" t.read_timeout);
  int "max-conn-requests" t.max_conn_requests

module J = Tiny_json

let content_type_json = ("Content-Type", "application/json")

let json_response ?(status = 200) ?(headers = []) json =
  { Router.status;
    headers = content_type_json :: headers;
    body = J.to_string json ^ "\n" }

let concat_response parts =
  { Router.status = 200;
    headers = [ content_type_json ];
    body = String.concat "" parts }

let error status message =
  json_response ~status
    (J.Obj
       [ ("error",
          J.Obj [ ("code", J.Int status); ("message", J.Str message) ]) ])

(* Exact rational rendering: numerator and denominator as decimal
   strings (Shapley denominators divide n! and overflow any float or
   63-bit int long before n gets interesting), plus a float for
   consumers that only chart. *)
let rat r =
  J.Obj
    [ ("num", J.Str (Bigint.to_string (Rat.num r)));
      ("den", J.Str (Bigint.to_string (Rat.den r)));
      ("float", J.Float (Rat.to_float r)) ]

let rec value = function
  | Value.VInt i -> J.Int i
  | Value.VStr s -> J.Str s
  | Value.VPair (a, b) -> J.List [ value a; value b ]

let tuple values = J.List (Array.to_list (Array.map value values))

(* ------------------------------------------------------------------ *)
(* Request-body decoding: every failure is a ready-to-send 400.        *)

let parse_body (req : Http.request) =
  match J.parse_opt req.Http.body with
  | Some v -> Ok v
  | None -> Error (error 400 "request body is not valid JSON")

let obj_field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (error 400 (Printf.sprintf "missing field %S" name))

let str_field name json =
  match obj_field name json with
  | Error e -> Error e
  | Ok v -> (
      match J.to_str v with
      | Some s -> Ok s
      | None -> Error (error 400 (Printf.sprintf "field %S must be a string" name)))

let int_field name json =
  match obj_field name json with
  | Error e -> Error e
  | Ok v -> (
      match J.to_int v with
      | Some i -> Ok i
      | None ->
        Error (error 400 (Printf.sprintf "field %S must be an integer" name)))

let opt_str_field name json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_str v with
      | Some s -> Ok (Some s)
      | None -> Error (error 400 (Printf.sprintf "field %S must be a string" name)))

let opt_int_field name json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_int v with
      | Some i -> Ok (Some i)
      | None ->
        Error (error 400 (Printf.sprintf "field %S must be an integer" name)))

let opt_float_field name json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_float v with
      | Some f -> Ok (Some f)
      | None ->
        Error (error 400 (Printf.sprintf "field %S must be a number" name)))

module J = Tiny_json

let content_type_json = ("Content-Type", "application/json")

let json_response ?(status = 200) ?(headers = []) json =
  { Router.status;
    headers = content_type_json :: headers;
    body = [ J.to_string json; "\n" ] }

let concat_response parts =
  { Router.status = 200; headers = [ content_type_json ]; body = parts }

let error = Router.error_response

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

let field name conv ~must_be json =
  match J.member name json with
  | None -> Error (error 400 (Printf.sprintf "missing field %S" name))
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None ->
        Error (error 400 (Printf.sprintf "field %S must be %s" name must_be)))

let opt_field name conv ~must_be json =
  match J.member name json with
  | None | Some J.Null -> Ok None
  | Some _ -> Result.map Option.some (field name conv ~must_be json)

type response = {
  status : int;
  headers : (string * string) list;
  body : string list;
}

(* Handlers uniformly receive the bound path parameters; [route] hides
   them for the fixed-path common case. *)
type route = {
  meth : Http.meth;
  path : string;
  handler : (string * string) list -> Http.request -> response;
}

let route meth path handler =
  { meth; path; handler = (fun _params req -> handler req) }

let route_params meth path handler = { meth; path; handler }

(* The one builder of the error body, [{"error":{"code":…,"message":…}}];
   [Json_codec.error] is this function. *)
let error_response ?(headers = []) status message =
  let module J = Tiny_json in
  { status;
    headers = ("Content-Type", "application/json") :: headers;
    body =
      [ J.to_string
          (J.Obj
             [ ("error",
                J.Obj [ ("code", J.Int status); ("message", J.Str message) ])
             ]);
        "\n" ] }

(* [match_path ~pattern path]: segment-wise match; a [:name] pattern
   segment binds any single non-empty segment.  Fixed patterns take the
   fast exact-equality path. *)
let match_path ~pattern path =
  if not (String.contains pattern ':') then
    if String.equal pattern path then Some [] else None
  else
    let rec go acc ps ss =
      match (ps, ss) with
      | [], [] -> Some (List.rev acc)
      | p :: ps, s :: ss when String.length p > 1 && p.[0] = ':' ->
        if s = "" then None
        else go ((String.sub p 1 (String.length p - 1), s) :: acc) ps ss
      | p :: ps, s :: ss when String.equal p s -> go acc ps ss
      | _ -> None
    in
    go [] (String.split_on_char '/' pattern) (String.split_on_char '/' path)

let dispatch routes (req : Http.request) =
  let path = req.Http.path in
  let candidates =
    List.filter_map
      (fun r ->
        match match_path ~pattern:r.path path with
        | Some params -> Some (r, params)
        | None -> None)
      routes
  in
  (* A fixed route shadows a parameterized one matching the same path,
     regardless of registration order. *)
  let candidates =
    List.stable_sort
      (fun (a, _) (b, _) ->
        compare (String.contains a.path ':') (String.contains b.path ':'))
      candidates
  in
  match candidates with
  | [] -> ("unmatched", error_response 404 ("no such resource: " ^ path))
  | _ -> (
      match
        List.find_opt (fun (r, _) -> r.meth = req.Http.meth) candidates
      with
      | None ->
        let allow =
          String.concat ", "
            (List.map (fun (r, _) -> Http.meth_to_string r.meth) candidates)
        in
        ( "unmatched",
          error_response
            ~headers:[ ("Allow", allow) ]
            405
            (Printf.sprintf "method %s not allowed on %s (allow: %s)"
               (Http.meth_to_string req.Http.meth)
               path allow) )
      | Some (r, params) -> (
          (* The metric/log label is the PATTERN, not the concrete path:
             route label cardinality stays bounded however many ids flow
             through a parameterized route. *)
          try (r.path, r.handler params req)
          with e ->
            Printf.eprintf "shapmc serve: handler %s raised: %s\n%!" path
              (Printexc.to_string e);
            (r.path, error_response 500 "internal server error")))

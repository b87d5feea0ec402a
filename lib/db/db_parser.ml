let fail line msg =
  invalid_arg (Printf.sprintf "Db_parser: %s on line %d" msg line)

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* A quoted word loses its quotes, and a doubled quote inside it stands
   for one: the inverse of [Value.literal]. *)
let parse_value w =
  let n = String.length w in
  match int_of_string_opt w with
  | Some i -> Value.int i
  | None when n >= 2 && w.[0] = '\'' && w.[n - 1] = '\'' ->
    let b = Buffer.create n in
    let rec go i =
      if i < n - 1 then begin
        Buffer.add_char b w.[i];
        go (if w.[i] = '\'' && w.[i + 1] = '\'' then i + 2 else i + 1)
      end
    in
    go 1;
    Value.str (Buffer.contents b)
  | None -> Value.str w

(* Query syntax: comma-separated atoms [Name(arg, ...)]. *)
let parse_query s =
  let s = String.trim s in
  let atoms = ref [] in
  let pos = ref 0 in
  let n = String.length s in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let read_until stops =
    let start = !pos in
    while !pos < n && not (List.mem s.[!pos] stops) do
      incr pos
    done;
    String.trim (String.sub s start (!pos - start))
  in
  let rec read_atoms () =
    skip_ws ();
    if !pos >= n then ()
    else begin
      (* optional '!' for a negated atom *)
      let negated =
        if !pos < n && s.[!pos] = '!' then begin
          incr pos;
          skip_ws ();
          true
        end
        else false
      in
      let name = read_until [ '(' ] in
      if name = "" || !pos >= n then
        invalid_arg "Db_parser.parse_query: expected atom name";
      incr pos;
      (* inside parens *)
      let args = ref [] in
      let rec read_args () =
        skip_ws ();
        let term =
          if !pos < n && s.[!pos] = '\'' then begin
            (* a quoted constant ends at its first undoubled quote *)
            let start = !pos in
            incr pos;
            while
              !pos < n
              && (s.[!pos] <> '\'' || (!pos + 1 < n && s.[!pos + 1] = '\''))
            do
              pos := !pos + if s.[!pos] = '\'' then 2 else 1
            done;
            if !pos >= n then
              invalid_arg "Db_parser.parse_query: unterminated constant";
            incr pos;
            let lit = String.sub s start (!pos - start) in
            if read_until [ ','; ')' ] <> "" then
              invalid_arg "Db_parser.parse_query: text after a quoted constant";
            Cq.C (parse_value lit)
          end
          else
            let arg = read_until [ ','; ')' ] in
            if arg = "" then
              invalid_arg "Db_parser.parse_query: empty argument";
            match int_of_string_opt arg with
            | Some i -> Cq.C (Value.int i)
            | None -> Cq.V arg
        in
        args := term :: !args;
        if !pos >= n then invalid_arg "Db_parser.parse_query: unclosed atom";
        if s.[!pos] = ',' then begin
          incr pos;
          read_args ()
        end
        else incr pos (* closing paren *)
      in
      read_args ();
      let mk = if negated then Cq.negated_atom else Cq.atom in
      atoms := mk name (List.rev !args) :: !atoms;
      skip_ws ();
      if !pos < n then begin
        if s.[!pos] <> ',' then
          invalid_arg "Db_parser.parse_query: expected ',' between atoms";
        incr pos;
        read_atoms ()
      end
    end
  in
  read_atoms ();
  Cq.make (List.rev !atoms)

let parse_string text =
  let db = Database.create () in
  let query = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
       let lineno = idx + 1 in
       let line = String.trim raw in
       if line = "" || line.[0] = '#' then ()
       else begin
         match split_words line with
         | "rel" :: name :: kind :: arity :: [] ->
           let kind =
             match kind with
             | "endo" -> Database.Endogenous
             | "exo" -> Database.Exogenous
             | _ -> fail lineno "kind must be 'endo' or 'exo'"
           in
           let arity =
             match int_of_string_opt arity with
             | Some a when a >= 0 -> a
             | _ -> fail lineno "bad arity"
           in
           (try Database.declare db name ~kind ~arity
            with Invalid_argument m -> fail lineno m)
         | "row" :: name :: values ->
           let values = Array.of_list (List.map parse_value values) in
           (try ignore (Database.insert db name values)
            with Invalid_argument m -> fail lineno m)
         | "query" :: _ ->
           if !query <> None then fail lineno "duplicate query";
           let qtext =
             String.trim (String.sub line 5 (String.length line - 5))
           in
           (try query := Some (parse_query qtext)
            with Invalid_argument m -> fail lineno m)
         | _ -> fail lineno "unrecognized directive"
       end)
    lines;
  match !query with
  | None -> invalid_arg "Db_parser: no query in input"
  | Some q ->
    Cq.check_against q db;
    (db, q)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

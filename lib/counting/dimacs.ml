type instance = {
  num_vars : int;
  clauses : Nf.clause list;
  weights : (int * Rat.t) list;
}

let fail line msg =
  invalid_arg (Printf.sprintf "Dimacs: %s on line %d" msg line)

let parse_weight s =
  (* rational "p/q" or decimal "0.25" *)
  match String.index_opt s '.' with
  | None -> Rat.of_string s
  | Some i ->
    let whole = String.sub s 0 i in
    let frac = String.sub s (i + 1) (String.length s - i - 1) in
    let denom = Bigint.pow (Bigint.of_int 10) (String.length frac) in
    let sign, whole =
      if whole <> "" && whole.[0] = '-' then
        (Bigint.minus_one, String.sub whole 1 (String.length whole - 1))
      else (Bigint.one, whole)
    in
    let whole_b = if whole = "" then Bigint.zero else Bigint.of_string whole in
    let frac_b = if frac = "" then Bigint.zero else Bigint.of_string frac in
    Rat.make
      (Bigint.mul sign (Bigint.add (Bigint.mul whole_b denom) frac_b))
      denom

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let weights = ref [] in
  let current = ref [] in (* literals of the clause being read *)
  let clauses = ref [] in
  let finish_clause lineno =
    if !current <> [] then fail lineno "clause not 0-terminated"
  in
  List.iteri
    (fun idx raw ->
       let lineno = idx + 1 in
       let line = String.trim raw in
       let words =
         String.split_on_char ' ' line
         |> List.concat_map (String.split_on_char '\t')
         |> List.filter (fun w -> w <> "")
       in
       match words with
       | [] -> ()
       | "c" :: "p" :: "weight" :: lit :: w :: _ ->
         (* Validation against the header (range, duplicates) happens at
            the end, once [num_vars] is known; the line number rides
            along so errors still point at the declaration. *)
         (match int_of_string_opt lit with
          | Some l when l > 0 ->
            weights := (lineno, l, parse_weight w) :: !weights
          | Some l when l < 0 -> () (* negative-literal weights are implied *)
          | Some _ -> fail lineno "bad weight literal 0"
          | None -> fail lineno "bad weight literal")
       | "c" :: _ -> ()
       | "p" :: "cnf" :: nv :: nc :: _ ->
         (match (int_of_string_opt nv, int_of_string_opt nc) with
          | Some nv, Some _ when nv >= 0 -> header := Some nv
          | _ -> fail lineno "bad p cnf header")
       | _ ->
         if !header = None then fail lineno "clause before p cnf header";
         let num_vars = Option.get !header in
         List.iter
           (fun w ->
              match int_of_string_opt w with
              | None -> fail lineno ("bad literal " ^ w)
              | Some l when abs l > num_vars ->
                fail lineno
                  (Printf.sprintf "variable %d out of range 1..%d" (abs l)
                     num_vars)
              | Some 0 ->
                let pos =
                  List.filter_map (fun l -> if l > 0 then Some l else None)
                    !current
                in
                let neg =
                  List.filter_map (fun l -> if l < 0 then Some (-l) else None)
                    !current
                in
                (* tautological clauses (v and -v) are dropped *)
                (try clauses := Nf.clause ~pos ~neg :: !clauses
                 with Invalid_argument _ -> ());
                current := []
              | Some l -> current := l :: !current)
           words)
    lines;
  finish_clause (List.length lines);
  match !header with
  | None -> invalid_arg "Dimacs: missing p cnf header"
  | Some num_vars ->
    let seen = Hashtbl.create 16 in
    let weights =
      List.rev !weights
      |> List.map (fun (lineno, v, w) ->
          if v > num_vars then
            fail lineno
              (Printf.sprintf "weight variable %d out of range 1..%d" v
                 num_vars);
          if Hashtbl.mem seen v then
            fail lineno
              (Printf.sprintf "duplicate weight declaration for variable %d" v);
          Hashtbl.replace seen v ();
          (v, w))
    in
    { num_vars; clauses = List.rev !clauses; weights }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let to_formula inst = Nf.cnf_to_formula inst.clauses
let variables inst = List.init inst.num_vars succ

let print inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" inst.num_vars (List.length inst.clauses));
  List.iter
    (fun (v, w) ->
       Buffer.add_string buf
         (Printf.sprintf "c p weight %d %s 0\n" v (Rat.to_string w)))
    inst.weights;
  List.iter
    (fun (c : Nf.clause) ->
       Vset.iter (fun v -> Buffer.add_string buf (string_of_int v ^ " ")) c.Nf.pos;
       Vset.iter
         (fun v -> Buffer.add_string buf ("-" ^ string_of_int v ^ " "))
         c.Nf.neg;
       Buffer.add_string buf "0\n")
    inst.clauses;
  Buffer.contents buf

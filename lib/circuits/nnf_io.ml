(* Node lines are emitted children-first (the circuit fold is bottom-up),
   so child indices always refer to earlier lines, as the format requires. *)

let export root ~num_vars =
  let buf = Buffer.create 256 in
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let lines = ref [] in
  let emit line =
    lines := line :: !lines;
    let i = !next in
    incr next;
    i
  in
  let edge_total = ref 0 in
  (* c2d literals are nonzero and name a variable in 1..num_vars. *)
  let literal sign v =
    if v < 1 || v > num_vars then
      invalid_arg
        (Printf.sprintf "Nnf_io.export: variable x%d outside 1..%d" v num_vars);
    emit (Printf.sprintf "L %s%d" sign v)
  in
  let node_line (g : Circuit.node) =
    match g.gate with
    | Circuit.Ctrue -> emit "A 0"
    | Circuit.Cfalse -> emit "O 0 0"
    | Circuit.Cvar v -> literal "" v
    | Circuit.Cnot { gate = Circuit.Cvar v; _ } -> literal "-" v
    | Circuit.Cnot _ ->
      invalid_arg "Nnf_io.export: inner negation (not NNF)"
    | Circuit.Cand gs ->
      let ids = List.map (fun (c : Circuit.node) -> Hashtbl.find index c.id) gs in
      edge_total := !edge_total + List.length ids;
      emit
        (Printf.sprintf "A %d %s" (List.length ids)
           (String.concat " " (List.map string_of_int ids)))
    | Circuit.Cor (Circuit.Deterministic, gs) ->
      let ids = List.map (fun (c : Circuit.node) -> Hashtbl.find index c.id) gs in
      edge_total := !edge_total + List.length ids;
      (* the conflict-variable field is not used by consumers for
         counting; 0 is the conventional "unknown" *)
      emit
        (Printf.sprintf "O 0 %d %s" (List.length ids)
           (String.concat " " (List.map string_of_int ids)))
    | Circuit.Cor (Circuit.Disjoint, _) ->
      invalid_arg
        "Nnf_io.export: disjoint OR gate (determinism not expressible in NNF)"
  in
  let _ =
    Circuit.fold
      (fun () g ->
         if not (Hashtbl.mem index g.id) then begin
           (* fold visits children first *)
           let line = node_line g in
           Hashtbl.replace index g.id line
         end)
      () root
  in
  let body = List.rev !lines in
  Buffer.add_string buf
    (Printf.sprintf "nnf %d %d %d\n" (List.length body) !edge_total num_vars);
  List.iter
    (fun l ->
       Buffer.add_string buf l;
       Buffer.add_char buf '\n')
    body;
  Buffer.contents buf

let import text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> 'c')
  in
  match lines with
  | [] -> invalid_arg "Nnf_io.import: empty input"
  | header :: body ->
    (match String.split_on_char ' ' header with
     | "nnf" :: _ -> ()
     | _ -> invalid_arg "Nnf_io.import: missing nnf header");
    let nodes = Array.make (List.length body) Circuit.ctrue in
    List.iteri
      (fun i line ->
         let words =
           String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
         in
         let node =
           match words with
           | [ "A"; "0" ] -> Circuit.ctrue
           | [ "O"; "0"; "0" ] | [ "O"; _; "0" ] -> Circuit.cfalse
           | [ "L"; lit ] ->
             (match int_of_string_opt lit with
              | Some v when v > 0 -> Circuit.cvar v
              | Some v when v < 0 -> Circuit.cnot (Circuit.cvar (-v))
              | _ -> invalid_arg "Nnf_io.import: bad literal")
           | "A" :: count :: children ->
             let k =
               match int_of_string_opt count with
               | Some k -> k
               | None -> invalid_arg "Nnf_io.import: bad A count"
             in
             if List.length children <> k then
               invalid_arg "Nnf_io.import: A arity mismatch";
             Circuit.cand
               (List.map
                  (fun c ->
                     match int_of_string_opt c with
                     | Some j when j >= 0 && j < i -> nodes.(j)
                     | _ -> invalid_arg "Nnf_io.import: bad child index")
                  children)
           | "O" :: _ :: count :: children ->
             let k =
               match int_of_string_opt count with
               | Some k -> k
               | None -> invalid_arg "Nnf_io.import: bad O count"
             in
             if List.length children <> k then
               invalid_arg "Nnf_io.import: O arity mismatch";
             Circuit.cor_det
               (List.map
                  (fun c ->
                     match int_of_string_opt c with
                     | Some j when j >= 0 && j < i -> nodes.(j)
                     | _ -> invalid_arg "Nnf_io.import: bad child index")
                  children)
           | _ -> invalid_arg ("Nnf_io.import: bad line: " ^ line)
         in
         nodes.(i) <- node)
      body;
    if Array.length nodes = 0 then invalid_arg "Nnf_io.import: no nodes";
    nodes.(Array.length nodes - 1)

let import_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  import text

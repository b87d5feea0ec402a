(* Hand-written lexer + recursive-descent parser, matching the grammar in
   the interface.  Kept dependency-free on purpose. *)

type token =
  | Tok_var of string
  | Tok_true
  | Tok_false
  | Tok_and
  | Tok_or
  | Tok_not
  | Tok_lpar
  | Tok_rpar
  | Tok_eof

let fail pos msg =
  invalid_arg (Printf.sprintf "Parser: %s at position %d" msg pos)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Tokens and their start positions, in two arrays ending with [Tok_eof]
   at position [n] (a token spans at least one character). *)
let lex s =
  let n = String.length s in
  let toks = Array.make (n + 1) Tok_eof and starts = Array.make (n + 1) n in
  let k = ref 0 and i = ref 0 in
  let emit tok start =
    toks.(!k) <- tok;
    starts.(!k) <- start;
    incr k
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      emit (Tok_var (String.sub s start (!i - start))) start
    end
    else begin
      (match c with
       | '&' | '*' -> emit Tok_and !i
       | '|' | '+' -> emit Tok_or !i
       | '!' | '~' -> emit Tok_not !i
       | '(' -> emit Tok_lpar !i
       | ')' -> emit Tok_rpar !i
       | '0' -> emit Tok_false !i
       | '1' -> emit Tok_true !i
       | _ -> fail !i (Printf.sprintf "unexpected character %C" c));
      incr i
    end
  done;
  (toks, starts)

(* Identifier interning: [x<digits>] is variable <digits>; other names get
   ids above every numbered variable of the whole input, in
   first-occurrence order. *)
type interner = {
  mutable table : (string * (int * Formula.t)) list;
  mutable next : int;
}

let numbered name =
  let n = String.length name in
  let rec digits i acc =
    if i = n then Some acc
    else
      match name.[i] with
      | '0' .. '9' as c when acc <= (max_int - Char.code c + 48) / 10 ->
        digits (i + 1) ((10 * acc) + Char.code c - 48)
      | _ -> None
  in
  if n >= 2 && name.[0] = 'x' then digits 1 0 else None

(* One node per identifier, shared by its occurrences. *)
let intern st name =
  match List.assoc_opt name st.table with
  | Some (_, node) -> node
  | None ->
    let v =
      match numbered name with
      | Some k -> k
      | None ->
        let v = st.next in
        st.next <- v + 1;
        v
    in
    let node = Formula.var v in
    st.table <- (name, (v, node)) :: st.table;
    node

let formula_of_string s =
  let toks, starts = lex s in
  let top =
    Array.fold_left
      (fun top -> function
        | Tok_var name -> Option.fold ~none:top ~some:(Stdlib.max top) (numbered name)
        | _ -> top)
      0 toks
  in
  let st = { table = []; next = top + 1 } in
  let k = ref 0 in
  let peek () = toks.(!k) and at () = starts.(!k) and advance () = incr k in
  let rec parse_or () =
    let lhs = parse_and () in
    let rec loop acc =
      match peek () with
      | Tok_or ->
        advance ();
        loop (parse_and () :: acc)
      | _ -> List.rev acc
    in
    Formula.or_ (loop [ lhs ])
  and parse_and () =
    let lhs = parse_not () in
    let rec loop acc =
      match peek () with
      | Tok_and ->
        advance ();
        loop (parse_not () :: acc)
      | _ -> List.rev acc
    in
    Formula.and_ (loop [ lhs ])
  and parse_not () =
    match peek () with
    | Tok_not ->
      advance ();
      Formula.not_ (parse_not ())
    | _ -> parse_atom ()
  and parse_atom () =
    let pos = at () in
    match peek () with
    | Tok_true ->
      advance ();
      Formula.tru
    | Tok_false ->
      advance ();
      Formula.fls
    | Tok_var name ->
      advance ();
      intern st name
    | Tok_lpar ->
      advance ();
      let f = parse_or () in
      (match peek () with
       | Tok_rpar ->
         advance ();
         f
       | _ -> fail (at ()) (Printf.sprintf "unclosed '(' opened at %d" pos))
    | _ -> fail pos "expected a formula"
  in
  let f = parse_or () in
  (match peek () with Tok_eof -> () | _ -> fail (at ()) "trailing input");
  (f, List.rev_map (fun (name, (v, _)) -> (v, name)) st.table)

let formula_of_string_exn s = fst (formula_of_string s)

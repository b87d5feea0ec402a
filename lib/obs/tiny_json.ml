type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Recursive-descent parser over a string with one index of state. *)

let fail pos msg = failwith (Printf.sprintf "Tiny_json: %s at offset %d" msg pos)

let utf8_of_code b code =
  (* Encode one Unicode scalar value as UTF-8 into buffer [b]. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else fail !i (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin
      i := !i + l;
      v
    end
    else fail !i ("expected " ^ word)
  in
  let hex4 () =
    if !i + 4 > n then fail !i "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !i 4) in
    i := !i + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail !i "unterminated string";
      match s.[!i] with
      | '"' -> incr i
      | '\\' ->
        incr i;
        if !i >= n then fail !i "unterminated escape";
        (match s.[!i] with
         | '"' -> Buffer.add_char b '"'; incr i
         | '\\' -> Buffer.add_char b '\\'; incr i
         | '/' -> Buffer.add_char b '/'; incr i
         | 'b' -> Buffer.add_char b '\b'; incr i
         | 'f' -> Buffer.add_char b '\012'; incr i
         | 'n' -> Buffer.add_char b '\n'; incr i
         | 'r' -> Buffer.add_char b '\r'; incr i
         | 't' -> Buffer.add_char b '\t'; incr i
         | 'u' ->
           incr i;
           let code = hex4 () in
           (* Surrogate pair: a high surrogate must be followed by a
              \uXXXX low surrogate. *)
           let code =
             if code >= 0xD800 && code <= 0xDBFF then begin
               if !i + 2 <= n && s.[!i] = '\\' && s.[!i + 1] = 'u' then begin
                 i := !i + 2;
                 let low = hex4 () in
                 if low >= 0xDC00 && low <= 0xDFFF then
                   0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                 else fail !i "invalid low surrogate"
               end
               else fail !i "lone high surrogate"
             end
             else code
           in
           utf8_of_code b code
         | c -> fail !i (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 32 -> fail !i "raw control character in string"
      | c ->
        Buffer.add_char b c;
        incr i;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    if peek () = Some '-' then incr i;
    let is_float = ref false in
    while
      !i < n
      && (match s.[!i] with
          | '0' .. '9' -> true
          | '.' | 'e' | 'E' | '+' | '-' ->
            is_float := true;
            true
          | _ -> false)
    do
      incr i
    done;
    let tok = String.sub s start (!i - start) in
    if tok = "" || tok = "-" then fail start "expected a number";
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail start ("bad number " ^ tok)
    else
      match int_of_string_opt tok with
      | Some v -> Int v
      | None -> (
          (* Integer syntax beyond the 63-bit range. *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail start ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !i "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr i;
      skip_ws ();
      if peek () = Some '}' then begin
        incr i;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr i;
            members ()
          | Some '}' -> incr i
          | _ -> fail !i "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr i;
      skip_ws ();
      if peek () = Some ']' then begin
        incr i;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr i;
            elements ()
          | Some ']' -> incr i
          | _ -> fail !i "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then fail !i "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Failure _ -> None

(* ------------------------------------------------------------------ *)
(* Printing.  The inverse of [parse] up to non-finite floats (which
   JSON cannot represent; they print as null). *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Shortest decimal form that reads back as the same float, forced to
   contain '.' or an exponent so it parses as [Float] again. *)
let float_repr f =
  if Float.is_nan f || f = infinity || f = neg_infinity then "null"
  else
    let s =
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
    | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int v -> Some v
  | Float f when Float.is_integer f && Float.abs f < 4.611686018427388e18 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int v -> Some (float_of_int v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

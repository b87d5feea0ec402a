type meth = GET | POST | HEAD | PUT | DELETE | Other of string

let meth_to_string = function
  | GET -> "GET"
  | POST -> "POST"
  | HEAD -> "HEAD"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | Other s -> s

let meth_of_string = function
  | "GET" -> GET
  | "POST" -> POST
  | "HEAD" -> HEAD
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | s -> Other s

type request = {
  meth : meth;
  target : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

let header r name = List.assoc_opt name r.headers

let wants_keep_alive r =
  match Option.map String.lowercase_ascii (header r "connection") with
  | Some "close" -> false
  | Some v when v = "keep-alive" -> true
  | _ -> r.version = "HTTP/1.1"

(* ------------------------------------------------------------------ *)
(* Percent decoding                                                    *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let pct_decode s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '%' when !i + 2 < n -> (
         match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
         | Some h, Some l ->
           Buffer.add_char b (Char.chr ((h lsl 4) lor l));
           i := !i + 2
         | _ -> Buffer.add_char b '%')
     | '+' -> Buffer.add_char b ' '
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let split_target target =
  let path_raw, query_raw =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some q ->
      ( String.sub target 0 q,
        String.sub target (q + 1) (String.length target - q - 1) )
  in
  let query =
    if query_raw = "" then []
    else
      List.filter_map
        (fun kv ->
          if kv = "" then None
          else
            match String.index_opt kv '=' with
            | None -> Some (pct_decode kv, "")
            | Some e ->
              Some
                ( pct_decode (String.sub kv 0 e),
                  pct_decode
                    (String.sub kv (e + 1) (String.length kv - e - 1)) ))
        (String.split_on_char '&' query_raw)
  in
  (pct_decode path_raw, query)

(* ------------------------------------------------------------------ *)
(* Incremental request parser                                          *)

type outcome =
  | Incomplete
  | Request of request
  | Reject of int * string

(* The request line, headers and declared body length, kept once the
   header section has parsed; [req.body] is filled in on completion. *)
type head = { req : request; hdr_end : int; length : int }

type parser_ = {
  limits : Limits.t;
  buf : Buffer.t;  (* every byte fed so far (current request + beyond) *)
  mutable scanned : int;  (* bytes the header-end scan has read *)
  mutable line_start : int;  (* where the line being scanned starts *)
  mutable head : head option;
  mutable saw_eof : bool;
  mutable result : outcome;  (* cached once terminal *)
  mutable leftover_ : string;
  mutable drain_ : int;
      (* declared body bytes still on the wire when a 413 is issued *)
}

let create ~limits =
  { limits;
    buf = Buffer.create 512;
    scanned = 0;
    line_start = 0;
    head = None;
    saw_eof = false;
    result = Incomplete;
    leftover_ = "";
    drain_ = 0 }

let bytes_fed p = Buffer.length p.buf

let leftover p = p.leftover_

let drain_hint p = p.drain_

let is_tchar c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
    true
  | _ -> false

let is_token s = s <> "" && String.for_all is_tchar s

let trim_ows s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < !j && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j > !i && (s.[!j - 1] = ' ' || s.[!j - 1] = '\t') do decr j done;
  String.sub s !i (!j - !i)

(* Find the end of the header section: the byte offset just past the
   first empty line.  Lines end at '\n', with an optional '\r' before
   it, so both CRLF and bare-LF framing (and mixtures) parse.  The scan
   resumes where the previous call stopped, so each byte is read once. *)
let rec header_end p =
  let i = p.scanned in
  if i >= Buffer.length p.buf then None
  else begin
    p.scanned <- i + 1;
    if Buffer.nth p.buf i <> '\n' then header_end p
    else
      let l = i - p.line_start in
      let l = if l > 0 && Buffer.nth p.buf (i - 1) = '\r' then l - 1 else l in
      if l = 0 then Some (i + 1)
      else begin
        p.line_start <- i + 1;
        header_end p
      end
  end

(* Split the header section (with its final empty line) into lines. *)
let section_lines section =
  let strip l =
    let n = String.length l in
    if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
  in
  (* The section ends "...\n<empty>\n"; dropping empty trailing pieces
     leaves the request line and the header lines. *)
  List.filter (fun l -> l <> "")
    (List.map strip (String.split_on_char '\n' section))

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ m; target; version ] ->
    if not (is_token m) then Error "malformed method token"
    else if target = "" || target.[0] <> '/' then
      Error "request-target must start with '/'"
    else if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
      Error ("unsupported protocol version " ^ version)
    else Ok (meth_of_string m, target, version)
  | _ -> Error "malformed request line (want: METHOD TARGET VERSION)"

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error ("header line without ':': " ^ line)
  | Some c ->
    let name = String.sub line 0 c in
    if not (is_token name) then Error ("malformed header name: " ^ name)
    else
      let value =
        trim_ows (String.sub line (c + 1) (String.length line - c - 1))
      in
      Ok (String.lowercase_ascii name, value)

let content_length headers =
  match List.filter (fun (n, _) -> n = "content-length") headers with
  | [] -> Ok 0
  | [ (_, v) ] -> (
      match int_of_string_opt v with
      | Some n when n >= 0 && String.for_all (fun c -> c >= '0' && c <= '9') v
        ->
        Ok n
      | _ -> Error ("malformed content-length: " ^ v))
  | _ :: _ :: _ -> Error "multiple content-length headers"

(* The head of a complete header section, or the 400 message. *)
let parse_head section ~hdr_end =
  match section_lines section with
  | [] -> Error "empty request line"
  | req_line :: header_lines -> (
      match parse_request_line req_line with
      | Error m -> Error m
      | Ok (meth, target, version) -> (
          let rec headers acc = function
            | [] -> Ok (List.rev acc)
            | l :: rest -> (
                match parse_header_line l with
                | Error m -> Error m
                | Ok kv -> headers (kv :: acc) rest)
          in
          match headers [] header_lines with
          | Error m -> Error m
          | Ok headers ->
            if List.mem_assoc "transfer-encoding" headers then
              Error "transfer-encoding is not supported"
            else (
              match content_length headers with
              | Error m -> Error m
              | Ok length ->
                let path, query = split_target target in
                Ok
                  { req =
                      { meth; target; path; query; version; headers;
                        body = "" };
                    hdr_end;
                    length })))

(* The outcome once the head is known: the body is copied once, when
   all of it has arrived. *)
let body_outcome p h =
  let n = Buffer.length p.buf in
  if h.length > p.limits.Limits.max_body_bytes then begin
    (* The client may still be mid-upload: remember how much declared
       body has yet to arrive so the server can linger-drain it before
       closing (closing with unread data sends RST, which on Linux
       discards the buffered 413 response). *)
    p.drain_ <- max 0 (h.length - (n - h.hdr_end));
    Reject
      ( 413,
        Printf.sprintf "declared body of %d bytes exceeds the %d-byte limit"
          h.length p.limits.Limits.max_body_bytes )
  end
  else
    let stop = h.hdr_end + h.length in
    if n < stop then
      if p.saw_eof then Reject (400, "truncated body (connection closed early)")
      else Incomplete
    else begin
      p.leftover_ <- Buffer.sub p.buf stop (n - stop);
      Request { h.req with body = Buffer.sub p.buf h.hdr_end h.length }
    end

let header_too_long max_hdr =
  Reject (400, Printf.sprintf "header section exceeds %d bytes" max_hdr)

(* The outcome of the bytes fed so far.  Total: every malformed shape
   maps to [Reject].  Work already done is kept: the header-end scan's
   position, and the head once parsed. *)
let compute p =
  let max_hdr = p.limits.Limits.max_header_bytes in
  match p.head with
  | Some h -> body_outcome p h
  | None -> (
      match header_end p with
      | None ->
        let n = Buffer.length p.buf in
        if n > max_hdr then header_too_long max_hdr
        else if p.saw_eof then
          if n = 0 then Reject (400, "empty request")
          else Reject (400, "truncated request (connection closed mid-headers)")
        else Incomplete
      | Some hdr_end when hdr_end > max_hdr -> header_too_long max_hdr
      | Some hdr_end -> (
          match parse_head (Buffer.sub p.buf 0 hdr_end) ~hdr_end with
          | Error m -> Reject (400, m)
          | Ok h ->
            p.head <- Some h;
            body_outcome p h))

let refresh p =
  match p.result with
  | Incomplete -> p.result <- compute p
  | Request _ | Reject _ -> ()

let feed p bytes =
  (match p.result with
   | Incomplete when not p.saw_eof -> Buffer.add_string p.buf bytes
   | Request _ ->
     (* Pipelined bytes arriving after the request completed belong to
        the next request on this connection. *)
     p.leftover_ <- p.leftover_ ^ bytes
   | _ -> ());
  refresh p

let eof p =
  p.saw_eof <- true;
  refresh p

let poll p =
  refresh p;
  p.result

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let reason = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c when c >= 200 && c < 300 -> "OK"
  | c when c >= 400 && c < 500 -> "Client Error"
  | c when c >= 500 -> "Server Error"
  | _ -> "Unknown"

let body_length body =
  List.fold_left (fun n part -> n + String.length part) 0 body

(* The status line and the headers, ending in the empty line, as one
   short string. *)
let head ~headers ~keep_alive ~status ~length =
  let b = Buffer.create 256 in
  let line k v =
    Buffer.add_string b k;
    Buffer.add_string b ": ";
    Buffer.add_string b v;
    Buffer.add_string b "\r\n"
  in
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int status);
  Buffer.add_char b ' ';
  Buffer.add_string b (reason status);
  Buffer.add_string b "\r\n";
  line "Content-Length" (string_of_int length);
  line "Connection" (if keep_alive then "keep-alive" else "close");
  List.iter (fun (k, v) -> line k v) headers;
  Buffer.add_string b "\r\n";
  Buffer.contents b

let render_response ?(headers = []) ?(keep_alive = false) ~status ~body () =
  String.concat ""
    (head ~headers ~keep_alive ~status ~length:(body_length body) :: body)

(* ------------------------------------------------------------------ *)
(* The writer: a response through one fixed buffer                     *)

let write_buffer_size = 16384

type writer = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int }

let writer fd = { fd; buf = Bytes.create write_buffer_size; pos = 0 }

exception Peer_gone

(* Writes [len] bytes of [s] from [off] with [write] ([Unix.write] or
   [Unix.write_substring]).  A peer that is gone ends the response with
   [Peer_gone]; any other error raises as it comes. *)
let rec write_out write fd s off len =
  if len > 0 then
    match write fd s off len with
    | 0 -> raise Peer_gone
    | k -> write_out write fd s (off + k) (len - k)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise Peer_gone

let flush w =
  let n = w.pos in
  w.pos <- 0;
  write_out Unix.write w.fd w.buf 0 n

(* A part that does not fit flushes the buffer first; one larger than
   the whole buffer is written from its own string, so the buffer never
   grows. *)
let add w part =
  let n = String.length part in
  if w.pos + n > Bytes.length w.buf then flush w;
  if n > Bytes.length w.buf then write_out Unix.write_substring w.fd part 0 n
  else begin
    Bytes.blit_string part 0 w.buf w.pos n;
    w.pos <- w.pos + n
  end

let write_response w ?(headers = []) ?(keep_alive = false) ~status ~body () =
  let length = body_length body in
  (try
     add w (head ~headers ~keep_alive ~status ~length);
     List.iter (add w) body;
     flush w
   with Peer_gone -> ());
  length

(* Tiny standalone HTTP client for the shell-level server test — no
   curl dependency on CI.  One request per run, [Connection: close]:

     serve_probe HOST PORT METHOD PATH [BODY]

   A BODY of [@FILE] sends FILE's contents (argv cannot carry the
   megabyte-scale bodies the limit tests need).  Prints the raw
   response (status line, headers, body) to stdout.  Exit 0 on an HTTP
   response whose body, read up to the server's close, is as long as
   its Content-Length (the script asserts on the text); 1 when the
   connection fails or the lengths differ, so every probe also checks
   the daemon's response writer. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [Some (declared, read)] for a response with a whole head: its
   Content-Length and the body bytes after the head. *)
let body_lengths response =
  let n = String.length response in
  let rec head_end i =
    if i + 4 > n then None
    else if String.sub response i 4 = "\r\n\r\n" then Some i
    else head_end (i + 1)
  in
  match head_end 0 with
  | None -> None
  | Some h ->
    let declared =
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some c
            when String.lowercase_ascii (String.sub line 0 c) = "content-length"
            ->
            int_of_string_opt
              (String.trim
                 (String.sub line (c + 1) (String.length line - c - 1)))
          | _ -> None)
        (String.split_on_char '\n' (String.sub response 0 h))
    in
    Option.map (fun d -> (d, n - h - 4)) declared

let () =
  match Array.to_list Sys.argv with
  | _ :: host :: port :: meth :: path :: rest ->
    let body = String.concat " " rest in
    let body =
      if String.length body > 0 && body.[0] = '@' then
        read_file (String.sub body 1 (String.length body - 1))
      else body
    in
    let port =
      match int_of_string_opt port with
      | Some p -> p
      | None ->
        prerr_endline ("serve_probe: bad port " ^ port);
        exit 2
    in
    (try
       (* A server enforcing its body limit may respond and close while
          we are still writing — don't die on the broken pipe, read the
          response it already sent. *)
       (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
        with Invalid_argument _ -> ());
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
       Unix.connect fd
         (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       let request =
         Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Length: %d\r\n\
            Connection: close\r\n\r\n%s"
           meth path host port (String.length body) body
       in
       let b = Bytes.of_string request in
       let rec send off =
         if off < Bytes.length b then
           send (off + Unix.write fd b off (Bytes.length b - off))
       in
       (try send 0
        with
        | Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
        -> ());
       let buf = Bytes.create 8192 and response = Buffer.create 8192 in
       let rec recv () =
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> ()
         | k ->
           Buffer.add_subbytes response buf 0 k;
           recv ()
       in
       recv ();
       Unix.close fd;
       let response = Buffer.contents response in
       print_string response;
       match body_lengths response with
       | Some (declared, read) when declared = read -> ()
       | Some (declared, read) ->
         Printf.eprintf
           "serve_probe: read %d body bytes, Content-Length says %d\n" read
           declared;
         exit 1
       | None ->
         prerr_endline "serve_probe: no response head with a Content-Length";
         exit 1
     with Unix.Unix_error (e, _, _) ->
       prerr_endline ("serve_probe: " ^ Unix.error_message e);
       exit 1)
  | _ ->
    prerr_endline "usage: serve_probe HOST PORT METHOD PATH [BODY]";
    exit 2

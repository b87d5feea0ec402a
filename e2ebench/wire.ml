(* Processes, /proc readings and a keep-alive HTTP/1.1 client. *)

let now = Unix.gettimeofday

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* ------------------------------------------------------------------ *)
(* Child processes *)

(* Every child still running is killed and reaped when the benchmark
   exits, however it exits. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (restart_on_eintr (fun () -> Unix.waitpid [] pid))
          with Unix.Unix_error _ -> ())
        live;
      Hashtbl.reset live)

type proc = { pid : int; out : Unix.file_descr; pending : Buffer.t }

(* The daemon must see only the generated inputs and its flags, so
   SHAPMC_* settings of the caller's environment are not passed on. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"SHAPMC_" kv))
       (Array.to_list (Unix.environment ())))

let spawn ~prog ~args ~stderr_path =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close err)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (clean_env ()) Unix.stdin w err)
  in
  Hashtbl.replace live pid ();
  { pid; out = r; pending = Buffer.create 256 }

(* Read more of the child's stdout into [pending]; false on EOF or when
   nothing arrives before [deadline]. *)
let fill p ~deadline =
  let left = deadline -. now () in
  left > 0.
  &&
  match restart_on_eintr (fun () -> Unix.select [ p.out ] [] [] left) with
  | [], _, _ -> false
  | _ ->
    let b = Bytes.create 65536 in
    (match restart_on_eintr (fun () -> Unix.read p.out b 0 65536) with
     | 0 -> false
     | k ->
       Buffer.add_subbytes p.pending b 0 k;
       true)

let read_line p ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let s = Buffer.contents p.pending in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear p.pending;
      Buffer.add_string p.pending
        (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> if fill p ~deadline then go () else None
  in
  go ()

(* Everything the child writes until it closes stdout. *)
let read_rest p ~timeout =
  let deadline = now () +. timeout in
  while fill p ~deadline do
    ()
  done;
  let s = Buffer.contents p.pending in
  Buffer.clear p.pending;
  s

(* Wait for the child to exit; past [timeout] it is killed.  [Ok ()]
   only for exit code 0. *)
let wait p ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] p.pid) with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (restart_on_eintr (fun () -> Unix.waitpid [] p.pid));
      Error "did not exit in time and was killed"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED c -> Error (Printf.sprintf "exited with code %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "killed by signal %d" s)
  in
  let r = go () in
  Hashtbl.remove live p.pid;
  (try Unix.close p.out with Unix.Unix_error _ -> ());
  r

let terminate p ~timeout =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait p ~timeout

(* ------------------------------------------------------------------ *)
(* /proc *)

(* Reads to end of file, so it works on /proc files, whose size reads 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* User + system CPU seconds of a process, all threads.  /proc reports
   them in clock ticks of USER_HZ, which is 100 on Linux. *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let fields =
    Array.of_list
      (String.split_on_char ' ' (String.sub s after (String.length s - after)))
  in
  (* fields.(0) is field 3 (state); utime and stime are fields 14, 15 *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' s)
  with
  | None -> failwith "no VmHWM in /proc status"
  | Some line ->
    let kb =
      List.find_map int_of_string_opt
        (String.split_on_char ' ' (String.sub line 6 (String.length line - 6)))
    in
    float_of_int (Option.get kb) /. 1024.

(* ------------------------------------------------------------------ *)
(* HTTP client: one keep-alive connection, reopened after the daemon
   answers [Connection: close]. *)

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  mutable buf : Bytes.t;
}

type response = { status : int; body : string }

let conn port = { port; fd = None; buf = Bytes.create 65536 }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let connect c =
  match c.fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
       restart_on_eintr (fun () ->
           Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port)))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    c.fd <- Some fd;
    fd

let render ~meth ~path ?rid body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: %d\r\n%s\r\n%s"
    meth path (String.length body)
    (match rid with Some r -> "X-Request-Id: " ^ r ^ "\r\n" | None -> "")
    body

(* Offset of the blank line ending the header section. *)
let find_head_end b ~len ~from =
  let rec go i =
    if i + 4 > len then None
    else if
      Bytes.get b i = '\r'
      && Bytes.get b (i + 1) = '\n'
      && Bytes.get b (i + 2) = '\r'
      && Bytes.get b (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go from

let lower = String.lowercase_ascii

(* Send one request and read the whole response.  Raises on I/O errors
   and on a connection closed mid-response; the caller resets the
   connection. *)
let exchange c (req : string) =
  let fd = connect c in
  let n = String.length req in
  let rec send off =
    if off < n then
      send (off + restart_on_eintr (fun () -> Unix.write_substring fd req off (n - off)))
  in
  send 0;
  let len = ref 0 in
  let more () =
    if !len = Bytes.length c.buf then begin
      let b = Bytes.create (2 * !len) in
      Bytes.blit c.buf 0 b 0 !len;
      c.buf <- b
    end;
    match
      restart_on_eintr (fun () ->
          Unix.read fd c.buf !len (Bytes.length c.buf - !len))
    with
    | 0 -> failwith "connection closed mid-response"
    | k -> len := !len + k
  in
  let rec head from =
    match find_head_end c.buf ~len:!len ~from with
    | Some i -> i
    | None ->
      let from = max 0 (!len - 3) in
      more ();
      head from
  in
  let hend = head 0 in
  let lines =
    String.split_on_char '\n' (Bytes.sub_string c.buf 0 hend)
    |> List.map String.trim
  in
  let status =
    match lines with
    | first :: _ -> (
        match String.split_on_char ' ' first with
        | _ :: code :: _ -> int_of_string code
        | _ -> failwith ("bad status line: " ^ first))
    | [] -> failwith "empty response"
  in
  let header name =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when lower (String.sub l 0 i) = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  let clen =
    match header "content-length" with
    | Some v -> int_of_string v
    | None -> failwith "response without Content-Length"
  in
  let bstart = hend + 4 in
  while !len < bstart + clen do
    more ()
  done;
  let body = Bytes.sub_string c.buf bstart clen in
  (match header "connection" with
   | Some v when lower v = "close" -> close c
   | _ -> ());
  { status; body }

(* One request on a fresh connection. *)
let oneshot port req =
  let c = conn port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> exchange c req)

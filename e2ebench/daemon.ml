(* Starting, probing and stopping [shapmc serve]. *)

type t = { proc : Wire.proc; port : int; stderr_path : string }

let port_of_banner line =
  Scanf.sscanf_opt line "shapmc serve: listening on http://%[^:]:%d" (fun _ port -> port)

let tail path =
  match Wire.read_file path with
  | s ->
    let n = String.length s in
    String.trim (if n > 600 then String.sub s (n - 600) 600 else s)
  | exception Sys_error _ -> ""

(* Spawn the daemon on an ephemeral port with [--jobs 2] and every other
   flag at its default; return it with its set-up time: from spawn to
   the first [/healthz] 200, which covers parsing every database. *)
let start ~shapmc ~stderr_path ?access_log files =
  let args =
    [ "serve"; "--port"; "0"; "--jobs"; "2" ]
    @ (match access_log with Some p -> [ "--access-log"; p ] | None -> [])
    @ files
  in
  let t0 = Wire.now () in
  let proc = Wire.spawn ~prog:shapmc ~args ~stderr_path in
  let fail why =
    ignore (Wire.terminate proc ~timeout:5.);
    failwith
      (Printf.sprintf "shapmc serve %s; its stderr: %s" why (tail stderr_path))
  in
  match Option.bind (Wire.read_line proc ~timeout:60.) port_of_banner with
  | None -> fail "did not start"
  | Some port -> (
      match Wire.oneshot port (Wire.render ~meth:"GET" ~path:"/healthz" "") with
      | { Wire.status = 200; _ } ->
        ({ proc; port; stderr_path }, Wire.now () -. t0)
      | { Wire.status; _ } -> fail (Printf.sprintf "answered /healthz with %d" status)
      | exception (Unix.Unix_error _ | Failure _) -> fail "refused /healthz")

(* SIGTERM and wait: a daemon that does not exit 0 fails the run. *)
let stop d =
  match Wire.terminate d.proc ~timeout:30. with
  | Ok () -> None
  | Error why ->
    Some
      (Printf.sprintf "shapmc serve %s on SIGTERM; its stderr: %s" why
         (tail d.stderr_path))

let cpu_seconds d = Wire.cpu_seconds d.proc.Wire.pid

let peak_rss_mb d = Wire.peak_rss_mb d.proc.Wire.pid

(* [/metrics] as (name, labels, value) samples. *)
let scrape d =
  let r = Wire.oneshot d.port (Wire.render ~meth:"GET" ~path:"/metrics" "") in
  if r.Wire.status <> 200 then failwith "GET /metrics failed";
  Metrics.parse_openmetrics r.Wire.body

(* Sum of a sample family, optionally restricted to one cache tier. *)
let total ?tier samples name =
  List.fold_left
    (fun acc (s : Metrics.om_sample) ->
      if
        s.Metrics.om_name = name
        && (match tier with
            | None -> true
            | Some t -> List.assoc_opt "tier" s.Metrics.om_labels = Some t)
      then acc +. s.Metrics.om_value
      else acc)
    0. samples

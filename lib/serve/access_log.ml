(* Structured JSONL access log: one Tiny_json object per line, written
   append-only under a mutex (request completions arrive on every
   worker domain), flushed per line so `shapmc tail` and crashed-
   process forensics see complete records.

   Size-based rotation: when the next line would push the file past
   [max_bytes], the current file is renamed to [path ^ ".1"] (replacing
   any previous rotation) and a fresh file is started — two files bound
   the disk footprint at ~2×[max_bytes], which is the right shape for a
   long-lived daemon with no external logrotate. *)

type t = {
  al_path : string;
  al_max_bytes : int;  (* 0 disables rotation *)
  al_lock : Mutex.t;
  mutable al_oc : out_channel;
  mutable al_bytes : int;
  mutable al_closed : bool;
}

let default_max_bytes = 64 * 1024 * 1024

let rotated_path path = path ^ ".1"

let open_channel path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let open_ ?(max_bytes = default_max_bytes) path =
  let oc = open_channel path in
  { al_path = path;
    al_max_bytes = max 0 max_bytes;
    al_lock = Mutex.create ();
    al_oc = oc;
    al_bytes = (try out_channel_length oc with Sys_error _ -> 0);
    al_closed = false }

let locked t f =
  Mutex.lock t.al_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.al_lock) f

let rotate t =
  close_out_noerr t.al_oc;
  (try Sys.rename t.al_path (rotated_path t.al_path)
   with Sys_error _ -> ());
  t.al_oc <- open_channel t.al_path;
  t.al_bytes <- 0

let write t json =
  let line = Tiny_json.to_string json ^ "\n" in
  locked t (fun () ->
      if not t.al_closed then begin
        if
          t.al_max_bytes > 0
          && t.al_bytes > 0
          && t.al_bytes + String.length line > t.al_max_bytes
        then rotate t;
        output_string t.al_oc line;
        flush t.al_oc;
        t.al_bytes <- t.al_bytes + String.length line
      end)

let close t =
  locked t (fun () ->
      if not t.al_closed then begin
        t.al_closed <- true;
        close_out_noerr t.al_oc
      end)

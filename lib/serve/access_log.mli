(** JSONL access log: one {!Tiny_json} object per line, mutex-guarded,
    flushed per line, with size-based rotation (the current file is
    renamed to [path ^ ".1"] when the next line would push it past
    [max_bytes], so disk use is bounded at ~2×[max_bytes]). *)

type t

val default_max_bytes : int
(** 64 MiB. *)

(** [open_ path] opens (appending) or creates [path].
    [max_bytes = 0] disables rotation.
    @raise Sys_error when the path cannot be opened. *)
val open_ : ?max_bytes:int -> string -> t

(** Where rotation moves the full file: [path ^ ".1"]. *)
val rotated_path : string -> string

(** [write t json] appends one line ([to_string json ^ "\n"]),
    rotating first if needed.  No-op after {!close}. *)
val write : t -> Tiny_json.t -> unit

val close : t -> unit

(* Every writer builds a Tiny_json value and prints it through
   [Tiny_json.to_string], whose floats round-trip and whose non-finite
   floats print as [null]. *)
module J = Tiny_json

let value_to_json = function
  | Trace.Int v -> J.Int v
  | Trace.Float f -> J.Float f
  | Trace.Str s -> J.Str s
  | Trace.Bool b -> J.Bool b

let attrs_to_json attrs =
  J.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON *)

let chrome_event (e : Trace.event) =
  let args = ("args", attrs_to_json e.Trace.attrs) in
  let cat, ph, rest =
    match e.Trace.kind with
    | Trace.Span_begin -> ("span", "B", [ args ])
    | Trace.Span_end -> ("span", "E", [])
    | Trace.Oracle ->
      let dur = match e.Trace.dur with Some d -> d *. 1e6 | None -> 0.0 in
      ("oracle", "X", [ ("dur", J.Float dur); args ])
    | Trace.Subst -> ("subst", "i", [ ("s", J.Str "t"); args ])
    | Trace.Phase -> ("phase", "i", [ ("s", J.Str "t"); args ])
    | Trace.Counter -> ("counter", "C", [ args ])
  in
  J.Obj
    ([ ("name", J.Str e.Trace.name); ("pid", J.Int 1); ("tid", J.Int 1);
       ("ts", J.Float (e.Trace.at *. 1e6)); ("cat", J.Str cat);
       ("ph", J.Str ph) ]
     @ rest)

let chrome events =
  let process =
    J.Obj
      [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int 1);
        ("tid", J.Int 1); ("args", J.Obj [ ("name", J.Str "shapmc") ]) ]
  in
  J.to_string
    (J.Obj
       [ ("traceEvents", J.List (process :: List.map chrome_event events));
         ("displayTimeUnit", J.Str "ms") ])

(* ------------------------------------------------------------------ *)
(* JSONL *)

let event_to_json (e : Trace.event) =
  J.Obj
    ([ ("seq", J.Int e.Trace.seq);
       ("t", J.Float e.Trace.at);
       ("depth", J.Int e.Trace.depth);
       ("kind", J.Str (Trace.kind_name e.Trace.kind));
       ("name", J.Str e.Trace.name) ]
     @ (match e.Trace.dur with Some d -> [ ("dur", J.Float d) ] | None -> [])
     @ [ ("attrs", attrs_to_json e.Trace.attrs) ])

let jsonl events =
  String.concat ""
    (List.map (fun e -> J.to_string (event_to_json e) ^ "\n") events)

let value_of_json = function
  | Tiny_json.Int v -> Trace.Int v
  | Tiny_json.Float f -> Trace.Float f
  | Tiny_json.Str s -> Trace.Str s
  | Tiny_json.Bool b -> Trace.Bool b
  | Tiny_json.Null -> Trace.Float Float.nan
  | _ -> failwith "Trace_export: unsupported attribute value"

let event_of_json json =
  let get name =
    match Tiny_json.member name json with
    | Some v -> v
    | None -> failwith ("Trace_export: event is missing field " ^ name)
  in
  let int_field name =
    match Tiny_json.to_int (get name) with
    | Some v -> v
    | None -> failwith ("Trace_export: field " ^ name ^ " is not an integer")
  in
  let float_field name =
    match Tiny_json.to_float (get name) with
    | Some v -> v
    | None -> failwith ("Trace_export: field " ^ name ^ " is not a number")
  in
  let str_field name =
    match Tiny_json.to_str (get name) with
    | Some v -> v
    | None -> failwith ("Trace_export: field " ^ name ^ " is not a string")
  in
  let kind =
    let k = str_field "kind" in
    match Trace.kind_of_name k with
    | Some kind -> kind
    | None -> failwith ("Trace_export: unknown event kind " ^ k)
  in
  let dur =
    match Tiny_json.member "dur" json with
    | None | Some Tiny_json.Null -> None
    | Some v -> (
        match Tiny_json.to_float v with
        | Some d -> Some d
        | None -> failwith "Trace_export: field dur is not a number")
  in
  let attrs =
    match Tiny_json.member "attrs" json with
    | None -> []
    | Some (Tiny_json.Obj fields) ->
      List.map (fun (k, v) -> (k, value_of_json v)) fields
    | Some _ -> failwith "Trace_export: field attrs is not an object"
  in
  { Trace.seq = int_field "seq";
    at = float_field "t";
    depth = int_field "depth";
    kind;
    name = str_field "name";
    dur;
    attrs }

type totals = { dropped : int; oracle_calls : int; oracle_seconds : float }

(* A stream header carrying what the stored events cannot: the buffer's
   totals.  Kept OUT of {!jsonl} (so the event serialization round-trips
   exactly) and written only by {!write_file}; readers skip any line with
   a "meta" field. *)
let meta_line b =
  J.to_string
    (J.Obj
       [ ("meta", J.Str "shapmc.trace"); ("version", J.Int 2);
         ("stored", J.Int (Trace.emitted b - Trace.dropped b));
         ("dropped", J.Int (Trace.dropped b));
         ("oracle_calls", J.Int (Trace.oracle_calls b));
         ("oracle_seconds", J.Float (Trace.oracle_seconds b)) ])
  ^ "\n"

let is_meta json = Tiny_json.member "meta" json <> None

let fold_jsonl text ~meta ~event =
  let lines = String.split_on_char '\n' text in
  let _, rev =
    List.fold_left
      (fun (lineno, acc) line ->
         let trimmed = String.trim line in
         if trimmed = "" then (lineno + 1, acc)
         else
           let json =
             try Tiny_json.parse trimmed
             with Failure msg ->
               failwith (Printf.sprintf "line %d: %s" lineno msg)
           in
           if is_meta json then begin
             meta json;
             (lineno + 1, acc)
           end
           else
             let ev =
               try event_of_json json
               with Failure msg ->
                 failwith (Printf.sprintf "line %d: %s" lineno msg)
             in
             (lineno + 1, event ev :: acc))
      (1, []) lines
  in
  List.rev rev

let events_of_jsonl text =
  fold_jsonl text ~meta:(fun _ -> ()) ~event:Fun.id

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let write_file ~path b =
  let events = Trace.events b in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       if has_suffix ~suffix:".jsonl" path then begin
         output_string oc (meta_line b);
         output_string oc (jsonl events)
       end
       else output_string oc (chrome events))

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_jsonl_file_full path =
  let totals = ref None in
  let events =
    fold_jsonl (read_text path)
      ~meta:(fun json ->
        let field name conv = Option.bind (Tiny_json.member name json) conv in
        match
          ( field "dropped" Tiny_json.to_int,
            field "oracle_calls" Tiny_json.to_int,
            field "oracle_seconds" Tiny_json.to_float )
        with
        | Some dropped, Some oracle_calls, Some oracle_seconds ->
          totals := Some { dropped; oracle_calls; oracle_seconds }
        | _ -> ())
      ~event:Fun.id
  in
  (events, !totals)

(* ------------------------------------------------------------------ *)
(* Timeline report *)

let attr_str (k, v) =
  let s =
    match v with
    | Trace.Int n -> string_of_int n
    | Trace.Float f -> Printf.sprintf "%g" f
    | Trace.Str s -> s
    | Trace.Bool b -> string_of_bool b
  in
  k ^ "=" ^ s

(* Oracle attributes get the compact [n=.. l=.. |F|=..] form; the issuing
   span path is dropped from the timeline line (it is visible from the
   indentation) to keep rows short. *)
let oracle_attr_str attrs =
  let named key label =
    match List.assoc_opt key attrs with
    | Some (Trace.Int v) -> Some (Printf.sprintf "%s=%d" label v)
    | _ -> None
  in
  let extras =
    List.filter
      (fun (k, _) -> not (List.mem k [ "n"; "l"; "size"; "span" ]))
      attrs
  in
  String.concat " "
    (List.filter_map Fun.id
       [ named "n" "n"; named "l" "l"; named "size" "|F|" ]
     @ List.map attr_str extras)

let ms s = s *. 1e3

let report ?totals ?(percentiles = false) events =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (match totals with
   | Some t when t.dropped > 0 ->
     line "WARNING: %d events dropped at the cap.  The timeline and every \
           total below cover the %d stored events only." t.dropped
       (List.length events);
     line "Exact over the whole run: %d oracle calls, %.3f oracle-ms."
       t.oracle_calls (ms t.oracle_seconds);
     line ""
   | _ -> ());
  line "%6s %12s  %s" "seq" "t(ms)" "event";
  (* Span stack of (name, begin time) for end-of-span durations; streams
     truncated by the event cap may leave unmatched begins, so every pop
     is defensive. *)
  let stack = ref [] in
  let span_tot : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  let oracle_tot : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 8 in
  (* Phase attribution: an event belongs to the most recent phase marker. *)
  let phase_order = ref [] in
  let phase_tot : (string, (int * int * float) ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let current_phase = ref "(before first phase)" in
  let bump_tbl tbl key dt =
    match Hashtbl.find_opt tbl key with
    | Some r ->
      let c, t = !r in
      r := (c + 1, t +. dt)
    | None -> Hashtbl.replace tbl key (ref (1, dt))
  in
  let phase_bump ~oracle ~dt =
    let key = !current_phase in
    let r =
      match Hashtbl.find_opt phase_tot key with
      | Some r -> r
      | None ->
        let r = ref (0, 0, 0.0) in
        Hashtbl.replace phase_tot key r;
        phase_order := key :: !phase_order;
        r
    in
    let evs, calls, secs = !r in
    r := (evs + 1, (calls + if oracle then 1 else 0), secs +. dt)
  in
  List.iter
    (fun (e : Trace.event) ->
       let indent = String.make (2 * e.Trace.depth) ' ' in
       let render =
         match e.Trace.kind with
         | Trace.Span_begin ->
           stack := (e.Trace.name, e.Trace.at) :: !stack;
           phase_bump ~oracle:false ~dt:0.0;
           Printf.sprintf "> %s" e.Trace.name
         | Trace.Span_end ->
           let dur =
             match !stack with
             | (name, t0) :: rest when name = e.Trace.name ->
               stack := rest;
               Some (e.Trace.at -. t0)
             | _ -> None
           in
           (match dur with
            | Some d ->
              bump_tbl span_tot e.Trace.name d;
              phase_bump ~oracle:false ~dt:0.0;
              Printf.sprintf "< %s  (%.3f ms)" e.Trace.name (ms d)
            | None ->
              phase_bump ~oracle:false ~dt:0.0;
              Printf.sprintf "< %s  (unmatched)" e.Trace.name)
         | Trace.Oracle ->
           let d = Option.value ~default:0.0 e.Trace.dur in
           bump_tbl oracle_tot e.Trace.name d;
           phase_bump ~oracle:true ~dt:d;
           Printf.sprintf "* oracle %s  %s  (%.3f ms)" e.Trace.name
             (oracle_attr_str e.Trace.attrs) (ms d)
         | Trace.Subst ->
           phase_bump ~oracle:false ~dt:0.0;
           Printf.sprintf "~ subst %s  %s" e.Trace.name
             (String.concat " " (List.map attr_str e.Trace.attrs))
         | Trace.Phase ->
           current_phase := e.Trace.name;
           phase_bump ~oracle:false ~dt:0.0;
           Printf.sprintf "-- phase %s %s" e.Trace.name
             (String.concat " " (List.map attr_str e.Trace.attrs))
         | Trace.Counter ->
           phase_bump ~oracle:false ~dt:0.0;
           Printf.sprintf ". %s" (String.concat " "
                                    (e.Trace.name
                                     :: List.map attr_str e.Trace.attrs))
       in
       line "%6d %12.3f  %s%s" e.Trace.seq (ms e.Trace.at) indent render)
    events;
  line "";
  line "per-phase aggregates:";
  let phases = List.rev !phase_order in
  if phases = [] then line "  (no events)"
  else begin
    line "  %-38s %8s %12s %14s" "phase" "events" "oracle-calls"
      "oracle-ms";
    List.iter
      (fun p ->
         match Hashtbl.find_opt phase_tot p with
         | Some r ->
           let evs, calls, secs = !r in
           line "  %-38s %8d %12d %14.3f" p evs calls (ms secs)
         | None -> ())
      phases
  end;
  line "";
  line "oracle totals:";
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])
  in
  (match sorted oracle_tot with
   | [] -> line "  (none)"
   | rows ->
     line "  %-28s %8s %14s" "oracle" "calls" "time-ms";
     List.iter
       (fun (name, (c, t)) -> line "  %-28s %8d %14.3f" name c (ms t))
       rows);
  (* Estimator convergence: aggregate the [estimator.checkpoint] phase
     markers emitted by Convergence monitors — last checkpoint wins for
     samples / half-width, so the row shows where the estimator ended. *)
  let est_tbl : (string, (string * int * int * float) ref) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun (e : Trace.event) ->
       if e.Trace.kind = Trace.Phase && e.Trace.name = "estimator.checkpoint"
       then begin
         let str key =
           match List.assoc_opt key e.Trace.attrs with
           | Some (Trace.Str s) -> s
           | _ -> "-"
         and int key =
           match List.assoc_opt key e.Trace.attrs with
           | Some (Trace.Int v) -> v
           | _ -> 0
         and fl key =
           match List.assoc_opt key e.Trace.attrs with
           | Some (Trace.Float v) -> v
           | _ -> Float.nan
         in
         let est = str "estimator" in
         let row = (str "ci", int "samples", fl "max_half_width") in
         match Hashtbl.find_opt est_tbl est with
         | Some r ->
           let _, cps, _, _ = !r in
           let ci, samples, hw = row in
           r := (ci, cps + 1, samples, hw)
         | None ->
           let ci, samples, hw = row in
           Hashtbl.replace est_tbl est (ref (ci, 1, samples, hw))
       end)
    events;
  if Hashtbl.length est_tbl > 0 then begin
    line "";
    line "estimator convergence:";
    line "  %-16s %-10s %12s %10s %16s" "estimator" "ci" "checkpoints"
      "samples" "half-width";
    List.iter
      (fun (est, (ci, cps, samples, hw)) ->
         line "  %-16s %-10s %12d %10d %16.6f" est ci cps samples hw)
      (List.sort compare
         (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) est_tbl []))
  end;
  line "";
  line "span totals:";
  (match sorted span_tot with
   | [] -> line "  (none)"
   | rows ->
     line "  %-48s %8s %14s" "span" "count" "time-ms";
     List.iter
       (fun (name, (c, t)) -> line "  %-48s %8d %14.3f" name c (ms t))
       rows);
  if percentiles then begin
    (* Latency distributions rebuilt from the oracle events through the
       same log-linear histograms as the live metrics registry, grouped
       by (oracle, lemma, arity) like [oracle_seconds].  Counts equal
       the oracle totals above, so ledger, trace and metrics agree. *)
    let groups : (string * string * string, Histogram.t) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (e : Trace.event) ->
         match e.Trace.kind with
         | Trace.Oracle ->
           let lemma =
             match List.assoc_opt "lemma" e.Trace.attrs with
             | Some (Trace.Str s) -> s
             | _ -> "-"
           in
           let l =
             match List.assoc_opt "l" e.Trace.attrs with
             | Some (Trace.Int v) -> string_of_int v
             | _ -> "-"
           in
           let key = (e.Trace.name, lemma, l) in
           let h =
             match Hashtbl.find_opt groups key with
             | Some h -> h
             | None ->
               let h = Histogram.create () in
               Hashtbl.replace groups key h;
               h
           in
           Histogram.observe h (Option.value ~default:0.0 e.Trace.dur)
         | _ -> ())
      events;
    line "";
    line "oracle latency percentiles:";
    let rows =
      List.sort compare
        (Hashtbl.fold (fun k h acc -> (k, h) :: acc) groups [])
    in
    if rows = [] then line "  (none)"
    else begin
      line "  %-16s %-6s %-5s %8s %10s %10s %10s %10s" "oracle" "lemma" "l"
        "calls" "p50-ms" "p90-ms" "p99-ms" "max-ms";
      let total = Histogram.create () in
      List.iter
        (fun ((name, lemma, l), h) ->
           Histogram.merge_into ~into:total h;
           line "  %-16s %-6s %-5s %8d %10.4f %10.4f %10.4f %10.4f" name
             lemma l (Histogram.count h)
             (ms (Histogram.percentile h 0.5))
             (ms (Histogram.percentile h 0.9))
             (ms (Histogram.percentile h 0.99))
             (ms (Histogram.max_value h)))
        rows;
      line "  %-16s %-6s %-5s %8d %10.4f %10.4f %10.4f %10.4f" "TOTAL" ""
        "" (Histogram.count total)
        (ms (Histogram.percentile total 0.5))
        (ms (Histogram.percentile total 0.9))
        (ms (Histogram.percentile total 0.99))
        (ms (Histogram.max_value total))
    end
  end;
  Buffer.contents b

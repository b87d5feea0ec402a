(* Metrics registry.  One mutex per registry; every public entry point
   takes the lock, so cross-domain use is safe.  Hot paths that cannot
   afford a lock per event build a local Histogram.t and merge it in
   one [merge_histogram] call. *)

type labels = (string * string) list

type cell =
  | CCounter of float ref
  | CGauge of float ref
  | CHist of Histogram.t

type registry = {
  lock : Mutex.t;
  tbl : (string, string * labels * cell) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }

let default = create ()

let with_lock r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let canon labels = List.sort compare labels

(* Flat table key; '\x00'/'\x01' cannot appear in metric names/labels. *)
let key name labels =
  let b = Buffer.create 32 in
  Buffer.add_string b name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b k;
      Buffer.add_char b '\x01';
      Buffer.add_string b v)
    labels;
  Buffer.contents b

let find_or_add r name labels mk =
  let labels = canon labels in
  let k = key name labels in
  match Hashtbl.find_opt r.tbl k with
  | Some (_, _, cell) -> cell
  | None ->
      let cell = mk () in
      Hashtbl.add r.tbl k (name, labels, cell);
      cell

let kind_error name what =
  invalid_arg (Printf.sprintf "Metrics: %s is not a %s" name what)

let inc ?(registry = default) ?(labels = []) ?(by = 1.) name =
  with_lock registry (fun () ->
      match find_or_add registry name labels (fun () -> CCounter (ref 0.)) with
      | CCounter r -> r := !r +. by
      | _ -> kind_error name "counter")

let set ?(registry = default) ?(labels = []) name v =
  with_lock registry (fun () ->
      match find_or_add registry name labels (fun () -> CGauge (ref 0.)) with
      | CGauge r -> r := v
      | _ -> kind_error name "gauge")

let observe ?(registry = default) ?(labels = []) name v =
  with_lock registry (fun () ->
      match
        find_or_add registry name labels (fun () -> CHist (Histogram.create ()))
      with
      | CHist h -> Histogram.observe h v
      | _ -> kind_error name "histogram")

let merge_histogram ?(registry = default) ?(labels = []) name src =
  with_lock registry (fun () ->
      match
        find_or_add registry name labels (fun () -> CHist (Histogram.create ()))
      with
      | CHist h -> Histogram.merge_into ~into:h src
      | _ -> kind_error name "histogram")

let reset ?(registry = default) () =
  with_lock registry (fun () -> Hashtbl.reset registry.tbl)

type value = Counter of float | Gauge of float | Hist of Histogram.t

let dump ?(registry = default) () =
  with_lock registry (fun () ->
      Hashtbl.fold
        (fun _ (name, labels, cell) acc ->
          let v =
            match cell with
            | CCounter r -> Counter !r
            | CGauge r -> Gauge !r
            | CHist h -> Hist (Histogram.copy h)
          in
          (name, labels, v) :: acc)
        registry.tbl []
      |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2)))

let find_histograms ?(registry = default) name =
  dump ~registry ()
  |> List.filter_map (fun (n, labels, v) ->
         match v with Hist h when n = name -> Some (labels, h) | _ -> None)

let counter_total ?(registry = default) name =
  dump ~registry ()
  |> List.fold_left
       (fun acc (n, _, v) ->
         match v with Counter c when n = name -> acc +. c | _ -> acc)
       0.

let gauge_value ?(registry = default) ?(labels = []) name =
  let labels = canon labels in
  with_lock registry (fun () ->
      match Hashtbl.find_opt registry.tbl (key name labels) with
      | Some (_, _, CGauge r) -> Some !r
      | _ -> None)

type summary = {
  s_count : int;
  s_sum : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

let summary_of h =
  { s_count = Histogram.count h;
    s_sum = Histogram.sum h;
    s_p50 = Histogram.percentile h 0.5;
    s_p90 = Histogram.percentile h 0.9;
    s_p99 = Histogram.percentile h 0.99;
    s_max = Histogram.max_value h }

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                             *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let om_escape v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let om_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let om_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> sanitize k ^ "=\"" ^ om_escape v ^ "\"") labels)
      ^ "}"

(* Labels with an extra [le] appended (histogram bucket series). *)
let om_labels_le labels le =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> sanitize k ^ "=\"" ^ om_escape v ^ "\"") labels
      @ [ "le=\"" ^ le ^ "\"" ])
  ^ "}"

let to_openmetrics ?(registry = default) () =
  let entries = dump ~registry () in
  let b = Buffer.create 1024 in
  let last_name = ref "" in
  let type_line name kind =
    if name <> !last_name then begin
      last_name := name;
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (name, labels, v) ->
      let mname = "shapmc_" ^ sanitize name in
      match v with
      | Counter c ->
          type_line mname "counter";
          Buffer.add_string b
            (Printf.sprintf "%s_total%s %s\n" mname (om_labels labels)
               (om_float c))
      | Gauge g ->
          type_line mname "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" mname (om_labels labels) (om_float g))
      | Hist h ->
          type_line mname "histogram";
          let cum = ref 0 in
          List.iter
            (fun (hi, cnt) ->
              cum := !cum + cnt;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" mname
                   (om_labels_le labels (om_float hi))
                   !cum))
            (Histogram.buckets h);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" mname
               (om_labels_le labels "+Inf") (Histogram.count h));
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" mname (om_labels labels)
               (om_float (Histogram.sum h)));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" mname (om_labels labels)
               (Histogram.count h)))
    entries;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

type om_sample = { om_name : string; om_labels : labels; om_value : float }

let om_parse_value s =
  match String.trim s with
  | "+Inf" | "Inf" -> infinity
  | "-Inf" -> neg_infinity
  | "NaN" -> nan
  | s -> (
      try float_of_string s
      with _ -> failwith ("parse_openmetrics: bad value " ^ s))

(* Parse the label block between '{' and '}' — a tiny scanner because
   label values may contain escaped quotes and commas. *)
let om_parse_labels s =
  let n = String.length s in
  let labels = ref [] in
  let i = ref 0 in
  while !i < n do
    let eq =
      try String.index_from s !i '='
      with Not_found -> failwith "parse_openmetrics: label missing '='"
    in
    let k = String.sub s !i (eq - !i) in
    if eq + 1 >= n || s.[eq + 1] <> '"' then
      failwith "parse_openmetrics: label value not quoted";
    let b = Buffer.create 16 in
    let j = ref (eq + 2) in
    let closed = ref false in
    while not !closed do
      if !j >= n then failwith "parse_openmetrics: unterminated label value";
      (match s.[!j] with
      | '\\' when !j + 1 < n ->
          (match s.[!j + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | c -> Buffer.add_char b c);
          incr j
      | '"' -> closed := true
      | c -> Buffer.add_char b c);
      incr j
    done;
    labels := (k, Buffer.contents b) :: !labels;
    if !j < n && s.[!j] = ',' then incr j;
    i := !j
  done;
  List.rev !labels

let parse_openmetrics text =
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match String.index_opt line '{' with
        | Some lb ->
            let rb =
              try String.rindex line '}'
              with Not_found -> failwith "parse_openmetrics: missing '}'"
            in
            Some
              { om_name = String.sub line 0 lb;
                om_labels = om_parse_labels (String.sub line (lb + 1) (rb - lb - 1));
                om_value =
                  om_parse_value
                    (String.sub line (rb + 1) (String.length line - rb - 1)) }
        | None -> (
            match String.index_opt line ' ' with
            | Some sp ->
                Some
                  { om_name = String.sub line 0 sp;
                    om_labels = [];
                    om_value =
                      om_parse_value
                        (String.sub line (sp + 1) (String.length line - sp - 1)) }
            | None -> failwith ("parse_openmetrics: bad line " ^ line)))
    lines

(* ------------------------------------------------------------------ *)
(* Profile report                                                     *)

let label_get labels k = try Some (List.assoc k labels) with Not_found -> None

let ms s = s *. 1000.

(* One row per oracle_seconds{oracle,lemma,l} series, then a roll-up
   across every label set. *)
let oracle_latency ?(registry = default) () =
  match find_histograms ~registry "oracle_seconds" with
  | [] -> ""
  | oracles ->
      let b = Buffer.create 512 in
      let row oracle lemma l s =
        Buffer.add_string b
          (Printf.sprintf "  %-10s %-6s %-5s %8d %10.4f %10.4f %10.4f %10.4f\n"
             oracle lemma l s.s_count (ms s.s_p50) (ms s.s_p90) (ms s.s_p99)
             (ms s.s_max))
      in
      Buffer.add_string b
        (Printf.sprintf "  %-10s %-6s %-5s %8s %10s %10s %10s %10s\n" "oracle"
           "lemma" "l" "calls" "p50 ms" "p90 ms" "p99 ms" "max ms");
      List.iter
        (fun (labels, h) ->
          let g k = Option.value ~default:"-" (label_get labels k) in
          row (g "oracle") (g "lemma") (g "l") (summary_of h))
        oracles;
      row "TOTAL" "" ""
        (summary_of
           (List.fold_left
              (fun acc (_, h) -> Histogram.merge acc h)
              (Histogram.create ()) oracles));
      Buffer.contents b

let profile_report ?(registry = default) () =
  let entries = dump ~registry () in
  let b = Buffer.create 1024 in
  let section title = Buffer.add_string b (Printf.sprintf "== %s ==\n" title) in
  (* Phases: span self time (+ allocation when profiled). *)
  let spans =
    List.filter_map
      (fun (n, labels, v) ->
        match (n, v) with
        | "span_self_seconds", Hist h -> (
            match label_get labels "span" with
            | Some p -> Some (p, h)
            | None -> None)
        | _ -> None)
      entries
  in
  let span_alloc =
    List.filter_map
      (fun (n, labels, v) ->
        match (n, v) with
        | "span_alloc_bytes", Hist h -> (
            match label_get labels "span" with
            | Some p -> Some (p, h)
            | None -> None)
        | _ -> None)
      entries
  in
  if spans <> [] then begin
    section "Phases (self time)";
    let spans =
      List.sort
        (fun (_, h1) (_, h2) -> compare (Histogram.sum h2) (Histogram.sum h1))
        spans
    in
    Buffer.add_string b
      (Printf.sprintf "  %-44s %8s %12s %12s %14s\n" "span" "calls" "self s"
         "mean ms" "alloc bytes");
    List.iter
      (fun (p, h) ->
        let c = Histogram.count h in
        let total = Histogram.sum h in
        let mean = if c = 0 then 0. else total /. float_of_int c in
        let alloc =
          match List.assoc_opt p span_alloc with
          | Some ha -> Printf.sprintf "%14.0f" (Histogram.sum ha)
          | None -> Printf.sprintf "%14s" "-"
        in
        Buffer.add_string b
          (Printf.sprintf "  %-44s %8d %12.6f %12.4f %s\n" p c total (ms mean)
             alloc))
      spans
  end;
  (match oracle_latency ~registry () with
   | "" -> ()
   | rows ->
       section "Oracle latency";
       Buffer.add_string b rows);
  (* Substitution sizes. *)
  let substs =
    List.filter_map
      (fun (n, labels, v) ->
        match (n, v) with
        | "subst_post_size", Hist h ->
            Some (Option.value ~default:"-" (label_get labels "kind"), h)
        | _ -> None)
      entries
  in
  if substs <> [] then begin
    section "Substitution sizes";
    Buffer.add_string b
      (Printf.sprintf "  %-16s %8s %8s %8s %8s\n" "kind" "count" "p50" "p99"
         "max");
    List.iter
      (fun (kind, h) ->
        let s = summary_of h in
        Buffer.add_string b
          (Printf.sprintf "  %-16s %8d %8.0f %8.0f %8.0f\n" kind s.s_count
             s.s_p50 s.s_p99 s.s_max))
      substs
  end;
  (* Gc gauges recorded by the profiling bracket. *)
  let gcs =
    List.filter_map
      (fun (n, _, v) ->
        match v with
        | Gauge g when String.length n >= 3 && String.sub n 0 3 = "gc_" ->
            Some (n, g)
        | _ -> None)
      entries
  in
  if gcs <> [] then begin
    section "Gc";
    List.iter
      (fun (n, g) ->
        Buffer.add_string b (Printf.sprintf "  %-24s %16.0f\n" n g))
      gcs
  end;
  (* Pool utilization. *)
  let pool_counter name =
    List.filter_map
      (fun (n, labels, v) ->
        match v with
        | Counter c when n = name ->
            Some (Option.value ~default:"-" (label_get labels "worker"), c)
        | _ -> None)
      entries
  in
  let busy = pool_counter "pool_worker_busy_seconds" in
  let idle = pool_counter "pool_worker_idle_seconds" in
  let tasks = pool_counter "pool_worker_tasks" in
  if busy <> [] then begin
    section "Pool";
    Buffer.add_string b
      (Printf.sprintf "  %-8s %10s %10s %8s\n" "worker" "busy s" "idle s"
         "tasks");
    List.iter
      (fun (w, bsy) ->
        let idl = Option.value ~default:0. (List.assoc_opt w idle) in
        let tsk = Option.value ~default:0. (List.assoc_opt w tasks) in
        Buffer.add_string b
          (Printf.sprintf "  %-8s %10.6f %10.6f %8.0f\n" w bsy idl tsk))
      busy;
    let busy_t = List.fold_left (fun a (_, c) -> a +. c) 0. busy in
    let idle_t = List.fold_left (fun a (_, c) -> a +. c) 0. idle in
    let util =
      if busy_t +. idle_t > 0. then busy_t /. (busy_t +. idle_t) else 1.
    in
    Buffer.add_string b
      (Printf.sprintf "  utilization %.1f%% (busy %.6fs / wall-in-pool %.6fs)\n"
         (util *. 100.) busy_t (busy_t +. idle_t));
    let waits = find_histograms ~registry "pool_job_wait_seconds" in
    match waits with
    | (_, h) :: _ when Histogram.count h > 0 ->
        let s = summary_of h in
        Buffer.add_string b
          (Printf.sprintf "  job wait: p50 %.4f ms, p99 %.4f ms, max %.4f ms\n"
             (ms s.s_p50) (ms s.s_p99) (ms s.s_max))
    | _ -> ()
  end;
  if Buffer.length b = 0 then "(no metrics recorded)\n" else Buffer.contents b

(* Global aggregates behind a single [enabled] flag, plus one delivery
   path for events.  Recording entry points check [observing] first, so
   when observation is off an instrumented call site costs one load +
   branch (plus the closure it already built).

   Each entry point builds its event once and hands it to [deliver],
   which writes it to the [--trace] stream while the ledger is enabled
   and to this domain's request buffer whenever one is installed.  The
   aggregates, counters, span table and Metrics series are gated on
   [enabled] alone, so a serving process with the ledger off still
   collects isolated per-request profiles with no global state growth.
   The span-stack DLS machinery runs whenever [observing] holds, so
   hierarchical span paths are correct in request-only mode too.

   Domain safety (the [--jobs] parallel fan-out): every mutation of the
   shared aggregates, counters and span table happens under one [lock],
   so concurrent recordings from pool workers neither tear the tables
   nor drop updates, and all aggregate totals stay exact regardless of
   scheduling.  The span NESTING state and the request buffer are
   per-domain ([Domain.DLS]); {!context}/{!with_context} let a fan-out
   primitive re-install the caller's in workers, so hierarchical span
   paths come out identical to a sequential run.  Under [jobs = 1]
   everything happens on one domain in the exact pre-pool order, so
   recorded streams are bit-identical to the sequential pipeline.  The
   [enabled] flag and the [--trace] stream are plain refs: they are only
   changed outside parallel regions (CLI startup, test brackets), never
   concurrently with recording. *)

type span_stat = {
  span_path : string;
  span_calls : int;
  span_seconds : float;
  span_self_seconds : float;
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* Profiling adds Gc sampling around each span.  Like [enabled], the
   flag is only toggled outside parallel regions. *)
let profiling_flag = ref false
let profiling () = !profiling_flag
let set_profiling b = profiling_flag := b

(* Bytes allocated by this domain so far (minor + major - promoted, so
   promotions are not double-counted).  [Gc.allocated_bytes] reads the
   live young-generation pointer, so the count is accurate between
   minor collections — unlike [Gc.quick_stat], whose [minor_words]
   only advances at collection boundaries on the multicore runtime. *)
let allocated_bytes_now () = Gc.allocated_bytes ()

(* ------------------------------------------------------------------ *)
(* Event buffers *)

let stream : Trace.t option ref = ref None
let set_trace b = stream := b

(* Installed request buffers anywhere in the process: the cheap gate in
   front of the DLS lookup, so paths outside any request pay one atomic
   load when no request is being served. *)
let live = Atomic.make 0

let request_key : Trace.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let request () =
  if Atomic.get live > 0 then Domain.DLS.get request_key else None

let with_request b f =
  let prev = Domain.DLS.get request_key in
  Domain.DLS.set request_key (Some b);
  Atomic.incr live;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr live;
      Domain.DLS.set request_key prev)
    f

let observing () = !enabled_flag || Option.is_some (request ())

(* The one delivery path: every event goes to the [--trace] stream while
   the ledger is on, and to this domain's request buffer.  [at] is the
   absolute start stamp of a timed region. *)
let deliver ?at ?dur ?attrs ~kind name =
  (if !enabled_flag then
     match !stream with
     | Some b -> Trace.emit b ?at ?dur ?attrs ~kind name
     | None -> ());
  match request () with
  | Some b -> Trace.emit b ?at ?dur ?attrs ~kind name
  | None -> ()

(* Does any buffer want the next event?  Entry points check it before
   building attribute lists. *)
let delivering () =
  (!enabled_flag && Option.is_some !stream) || Option.is_some (request ())

(* One lock for all shared recording state.  Held only for the few table
   updates of a record — never across a user callback, an oracle call
   or a buffer's own lock — so contention is bounded by bookkeeping, not
   by the work being measured. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 32

(* Exact per-oracle aggregates, updated on every record: calls, n range,
   arity range, max size, total time. *)
type agg = {
  mutable a_calls : int;
  mutable a_n_min : int;
  mutable a_n_max : int;
  mutable a_l_min : int;
  mutable a_l_max : int;
  mutable a_size_max : int;
  mutable a_seconds : float;
}

let agg_tbl : (string, agg) Hashtbl.t = Hashtbl.create 8
let calls_total = ref 0

(* Exact per-kind substitution aggregates: count, max pre/post, fresh sum. *)
type subst_agg = {
  mutable s_count : int;
  mutable s_pre_max : int;
  mutable s_post_max : int;
  mutable s_fresh : int;
}

let subst_agg_tbl : (string, subst_agg) Hashtbl.t = Hashtbl.create 4

(* Span aggregation: path -> calls / total seconds / self seconds.
   [span_stack] holds the current nesting as frames; each frame carries
   the open span's path plus mutable accumulators of the time (and,
   when profiling, allocation) spent in already-finished child spans,
   so a finishing span can report self = total - children.  The stack
   is per-domain state (which spans are open HERE), so it lives in
   domain-local storage rather than under [lock]; frames are only ever
   mutated by their own domain. *)
type span_acc = {
  mutable sp_calls : int;
  mutable sp_seconds : float;
  mutable sp_self : float;
}

let spans_tbl : (string, span_acc) Hashtbl.t = Hashtbl.create 32

type frame = {
  fr_path : string;
  mutable fr_child : float;  (* seconds spent in finished child spans *)
  mutable fr_child_alloc : float;  (* bytes allocated in finished children *)
}

let span_stack : frame list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let frame_of_path p = { fr_path = p; fr_child = 0.; fr_child_alloc = 0. }

type context = { ctx_spans : string list; ctx_request : Trace.t option }

let context () =
  { ctx_spans = List.map (fun fr -> fr.fr_path) (Domain.DLS.get span_stack);
    ctx_request = request () }

(* Workers get FRESH frames for the caller's open spans: child time they
   accumulate is credited inside the worker only, so cross-domain self
   time is best-effort (exact under jobs = 1, where no context is ever
   re-installed). *)
let with_context ctx f =
  let saved = Domain.DLS.get span_stack in
  Domain.DLS.set span_stack (List.map frame_of_path ctx.ctx_spans);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set span_stack saved)
    (fun () ->
      match ctx.ctx_request with Some b -> with_request b f | None -> f ())

let reset () =
  locked (fun () ->
      Hashtbl.reset counters_tbl;
      calls_total := 0;
      Hashtbl.reset agg_tbl;
      Hashtbl.reset subst_agg_tbl;
      Hashtbl.reset spans_tbl);
  Domain.DLS.set span_stack [];
  Metrics.reset ()

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Counters *)

let add name k =
  if !enabled_flag then begin
    locked (fun () ->
        match Hashtbl.find_opt counters_tbl name with
        | Some r -> r := !r + k
        | None -> Hashtbl.replace counters_tbl name (ref k));
    Metrics.inc ~by:(float_of_int k) name
  end;
  if delivering () then
    deliver ~attrs:[ ("value", Trace.Int k) ] ~kind:Trace.Counter name

let incr name = add name 1

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with Some r -> !r | None -> 0)

let counters () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters_tbl []))

(* ------------------------------------------------------------------ *)
(* Spans *)

let with_span ?attrs name f =
  if not (observing ()) then f ()
  else begin
    let enabled = !enabled_flag in
    let stack = Domain.DLS.get span_stack in
    let path =
      match stack with [] -> name | parent :: _ -> parent.fr_path ^ "/" ^ name
    in
    Domain.DLS.set span_stack (frame_of_path path :: stack);
    deliver ?attrs ~kind:Trace.Span_begin name;
    let prof = enabled && !profiling_flag in
    let alloc0 = if prof then allocated_bytes_now () else 0. in
    let t0 = now () in
    let finish () =
      (* Unix.gettimeofday is not monotonic: clamp so a clock step back
         cannot produce a negative duration. *)
      let dt = Float.max 0.0 (now () -. t0) in
      let d_alloc =
        if prof then Float.max 0.0 (allocated_bytes_now () -. alloc0) else 0.
      in
      let child, child_alloc =
        match Domain.DLS.get span_stack with
        | fr :: rest ->
          Domain.DLS.set span_stack rest;
          (* credit this span's full time (and allocation) to the parent
             so the parent's SELF time excludes it *)
          (match rest with
           | parent :: _ ->
             parent.fr_child <- parent.fr_child +. dt;
             if prof then
               parent.fr_child_alloc <- parent.fr_child_alloc +. d_alloc
           | [] -> ());
          (fr.fr_child, fr.fr_child_alloc)
        | [] -> (0., 0.)
      in
      let self = Float.max 0.0 (dt -. child) in
      deliver ~kind:Trace.Span_end name;
      if enabled then begin
        locked (fun () ->
            match Hashtbl.find_opt spans_tbl path with
            | Some a ->
              a.sp_calls <- a.sp_calls + 1;
              a.sp_seconds <- a.sp_seconds +. dt;
              a.sp_self <- a.sp_self +. self
            | None ->
              Hashtbl.replace spans_tbl path
                { sp_calls = 1; sp_seconds = dt; sp_self = self });
        Metrics.observe ~labels:[ ("span", path) ] "span_self_seconds" self;
        if prof then
          Metrics.observe ~labels:[ ("span", path) ] "span_alloc_bytes"
            (Float.max 0.0 (d_alloc -. child_alloc))
      end
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun path a acc ->
              { span_path = path; span_calls = a.sp_calls;
                span_seconds = a.sp_seconds; span_self_seconds = a.sp_self }
              :: acc)
           spans_tbl []))

(* ------------------------------------------------------------------ *)
(* Oracle calls *)

let agg_update ~oracle ~n ~arity ~size ~seconds =
  let a =
    match Hashtbl.find_opt agg_tbl oracle with
    | Some a -> a
    | None ->
      let a =
        { a_calls = 0; a_n_min = max_int; a_n_max = -1; a_l_min = max_int;
          a_l_max = -1; a_size_max = -1; a_seconds = 0.0 }
      in
      Hashtbl.replace agg_tbl oracle a;
      a
  in
  a.a_calls <- a.a_calls + 1;
  a.a_n_min <- min a.a_n_min n;
  a.a_n_max <- max a.a_n_max n;
  if arity >= 0 then begin
    a.a_l_min <- min a.a_l_min arity;
    a.a_l_max <- max a.a_l_max arity
  end;
  a.a_size_max <- max a.a_size_max size;
  a.a_seconds <- a.a_seconds +. seconds

(* Shared recording core: exact aggregate and latency histogram while
   enabled, and the call's event.  [at] is the absolute start stamp of
   the timed region. *)
let record_call ~oracle ~n ~arity ~size ~seconds ~at ~attrs =
  let seconds = Float.max 0.0 seconds in
  if !enabled_flag then begin
    locked (fun () ->
        calls_total := !calls_total + 1;
        agg_update ~oracle ~n ~arity ~size ~seconds);
    let lemma =
      match List.assoc_opt "lemma" attrs with
      | Some (Trace.Str s) -> s
      | _ -> "-"
    in
    Metrics.observe
      ~labels:
        [ ("oracle", oracle); ("lemma", lemma);
          ("l", if arity >= 0 then string_of_int arity else "-") ]
      "oracle_seconds" seconds
  end;
  if delivering () then
    deliver ~at ~dur:seconds
      ~attrs:
        ((("n", Trace.Int n) :: attrs)
         @ (if arity >= 0 then [ ("l", Trace.Int arity) ] else [])
         @ (if size >= 0 then [ ("size", Trace.Int size) ] else [])
         @
         match Domain.DLS.get span_stack with
         | fr :: _ -> [ ("span", Trace.Str fr.fr_path) ]
         | [] -> [])
      ~kind:Trace.Oracle oracle

let record ~oracle ~n ?(arity = -1) ?(size = -1) ~seconds () =
  if observing () then
    record_call ~oracle ~n ~arity ~size ~seconds
      ~at:(now () -. Float.max 0.0 seconds)
      ~attrs:[]

let call ~oracle ~n ?(arity = -1) ?(size = -1) ?(attrs = []) f =
  if not (observing ()) then f ()
  else begin
    let t0 = now () in
    let r = f () in
    record_call ~oracle ~n ~arity ~size ~seconds:(now () -. t0) ~at:t0 ~attrs;
    r
  end

let call_count ?oracle () =
  locked (fun () ->
      match oracle with
      | None -> !calls_total
      | Some name -> (
          match Hashtbl.find_opt agg_tbl name with
          | Some a -> a.a_calls
          | None -> 0))

(* ------------------------------------------------------------------ *)
(* Substitutions *)

let record_subst ?(width = -1) ~kind ~pre ~post ~fresh () =
  if !enabled_flag then begin
    locked (fun () ->
        match Hashtbl.find_opt subst_agg_tbl kind with
        | Some s ->
          s.s_count <- s.s_count + 1;
          s.s_pre_max <- max s.s_pre_max pre;
          s.s_post_max <- max s.s_post_max post;
          s.s_fresh <- s.s_fresh + fresh
        | None ->
          Hashtbl.replace subst_agg_tbl kind
            { s_count = 1; s_pre_max = pre; s_post_max = post;
              s_fresh = fresh });
    Metrics.observe ~labels:[ ("kind", kind) ] "subst_post_size"
      (float_of_int post)
  end;
  if delivering () then
    deliver
      ~attrs:
        ([ ("pre", Trace.Int pre); ("post", Trace.Int post);
           ("fresh", Trace.Int fresh) ]
         @ if width >= 0 then [ ("width", Trace.Int width) ] else [])
      ~kind:Trace.Subst kind

(* ------------------------------------------------------------------ *)
(* Phase markers *)

let phase ?attrs name = deliver ?attrs ~kind:Trace.Phase name

(* ------------------------------------------------------------------ *)
(* Reports *)

let aggregate () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun k a acc ->
              (* copy: callers must not see (or mutate) the live record *)
              (k, { a with a_calls = a.a_calls }) :: acc)
           agg_tbl []))

let range lo hi =
  if hi < 0 then "-"
  else if lo = hi then string_of_int lo
  else Printf.sprintf "%d..%d" lo hi

let subst_aggregate () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun k s acc ->
              (k, (s.s_count, s.s_pre_max, s.s_post_max, s.s_fresh)) :: acc)
           subst_agg_tbl []))

let pp_report ppf () =
  let open Format in
  let aggs = aggregate () in
  fprintf ppf "oracle calls:@\n";
  if aggs = [] then fprintf ppf "  (none)@\n"
  else begin
    fprintf ppf "  %-18s %8s %-9s %-9s %9s %10s@\n" "oracle" "calls" "n" "l"
      "max|F|" "time(s)";
    List.iter
      (fun (name, a) ->
         fprintf ppf "  %-18s %8d %-9s %-9s %9s %10.4f@\n" name a.a_calls
           (range a.a_n_min a.a_n_max)
           (range a.a_l_min a.a_l_max)
           (if a.a_size_max < 0 then "-" else string_of_int a.a_size_max)
           a.a_seconds)
      aggs
  end;
  (match subst_aggregate () with
   | [] -> ()
   | rows ->
     fprintf ppf "substitutions:@\n";
     fprintf ppf "  %-14s %8s %10s %10s %8s@\n" "kind" "count" "max-pre"
       "max-post" "fresh";
     List.iter
       (fun (kind, (c, pre, post, fresh)) ->
          fprintf ppf "  %-14s %8d %10d %10d %8d@\n" kind c pre post fresh)
       rows);
  (match counters () with
   | [] -> ()
   | cs ->
     fprintf ppf "counters:@\n";
     List.iter (fun (name, v) -> fprintf ppf "  %-34s %12d@\n" name v) cs);
  (match spans () with
   | [] -> ()
   | ss ->
     fprintf ppf "spans:@\n";
     List.iter
       (fun s ->
          fprintf ppf "  %-52s %6d %10.4f %10.4f@\n" s.span_path s.span_calls
            s.span_seconds s.span_self_seconds)
       ss)

let report () = Format.asprintf "%a" pp_report ()

(* Wall-clock differences can be nan/inf if the clock misbehaves; a bare
   "nan" token would make the whole document unparseable. *)
let json_float f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1.0e308"
  else if f = Float.neg_infinity then "-1.0e308"
  else Printf.sprintf "%.6f" f

let to_json () =
  let open Tiny_json in
  let obj f rows = Obj (List.map f rows) in
  to_string
    (Obj
       [ ("counters", obj (fun (k, v) -> (k, Int v)) (counters ()));
         ( "spans",
           obj
             (fun s ->
                ( s.span_path,
                  Obj
                    [ ("calls", Int s.span_calls);
                      ("seconds", Float s.span_seconds);
                      ("self_seconds", Float s.span_self_seconds) ] ))
             (spans ()) );
         ( "oracle_calls",
           obj
             (fun (name, a) ->
                ( name,
                  Obj
                    [ ("calls", Int a.a_calls);
                      ("n_min", Int a.a_n_min);
                      ("n_max", Int a.a_n_max);
                      ("l_min", Int (if a.a_l_max < 0 then -1 else a.a_l_min));
                      ("l_max", Int a.a_l_max);
                      ("size_max", Int a.a_size_max);
                      ("seconds", Float a.a_seconds) ] ))
             (aggregate ()) );
         ("calls_total", Int (call_count ())) ])

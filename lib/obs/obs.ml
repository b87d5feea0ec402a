(* The ledger is a set of series in the process-wide [Metrics] registry
   behind a single [enabled] flag, plus one delivery path for events.
   Recording entry points check [observing] first, so when observation
   is off an instrumented call site costs one load + branch (plus the
   closure it already built).

   Each entry point builds its event once and hands it to [deliver],
   which writes it to the [--trace] stream while the ledger is enabled
   and to this domain's request buffer whenever one is installed.  The
   series writes are gated on [enabled] alone, so a serving process with
   the ledger off still collects isolated per-request profiles with no
   global state growth.  The span-stack DLS machinery runs whenever
   [observing] holds, so hierarchical span paths are correct in
   request-only mode too.

   The series, one family per fact, are listed in obs.mli.  Histograms
   keep exact counts, sums, minima and maxima, so the views below read
   the ledger's aggregates off them, one family at a time.

   Domain safety (the [--jobs] parallel fan-out): this module holds no
   lock; the registry's mutex and each buffer's own keep concurrent
   recordings from pool workers exact.  The span NESTING state and the
   request buffer are per-domain ([Domain.DLS]); {!context}/
   {!with_context} let a fan-out primitive re-install the caller's in
   workers, so hierarchical span paths come out identical to a
   sequential run.  Under [jobs = 1] everything happens on one domain in
   the exact pre-pool order, so recorded streams are bit-identical to
   the sequential pipeline.  The [enabled] flag and the [--trace] stream
   are plain refs: they are only changed outside parallel regions (CLI
   startup, test brackets), never concurrently with recording. *)

type span_stat = {
  span_path : string;
  span_calls : int;
  span_seconds : float;
  span_self_seconds : float;
}

type agg = {
  a_calls : int;
  a_n_min : int;
  a_n_max : int;
  a_l_min : int;
  a_l_max : int;
  a_size_max : int;
  a_seconds : float;
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* Profiling adds Gc sampling around each span.  Like [enabled], the
   flag is only toggled outside parallel regions. *)
let profiling_flag = ref false
let set_profiling b = profiling_flag := b

(* Bytes allocated by this domain so far (minor + major - promoted, so
   promotions are not double-counted).  The minor part is
   [Gc.minor_words], which reads the live young-generation pointer and
   so is exact between minor collections.  [Gc.allocated_bytes] is not:
   on OCaml 5.1 its minor part advances in steps of about a minor heap
   (~0.9 MB), so a reading depends on where the last collection fell
   and a fixed workload reads differently after different prior
   allocation. *)
let allocated_bytes_now () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

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

(* Span nesting: [span_stack] holds the current nesting as frames; each
   frame carries the open span's path plus mutable accumulators of the
   time (and, when profiling, allocation) spent in already-finished
   child spans, so a finishing span can report self = total - children.
   The stack is per-domain state (which spans are open HERE), so it
   lives in domain-local storage; frames are only ever mutated by their
   own domain. *)
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
  Domain.DLS.set span_stack [];
  Metrics.reset ()

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Series readers: one family at a time, keyed by a label's value *)

let label k labels = Option.value ~default:"-" (List.assoc_opt k labels)

let fold_hists name f init =
  Metrics.fold name
    (fun labels v acc ->
      match v with Metrics.Hist h -> f labels h acc | _ -> acc)
    init

let ints name key =
  Metrics.fold name
    (fun labels v acc ->
      match v with
      | Metrics.Counter c -> (label key labels, int_of_float c) :: acc
      | _ -> acc)
    []

let imin h = int_of_float (Histogram.min_value h)
let imax h = int_of_float (Histogram.max_value h)

(* ------------------------------------------------------------------ *)
(* Counters *)

let add name k =
  if !enabled_flag then
    Metrics.inc ~labels:[ ("name", name) ] ~by:(float_of_int k)
      "ledger_counter";
  if delivering () then
    deliver ~attrs:[ ("value", Trace.Int k) ] ~kind:Trace.Counter name

let incr name = add name 1

let counters () = List.sort compare (ints "ledger_counter" "name")

let counter name =
  Option.value ~default:0 (List.assoc_opt name (counters ()))

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
        let labels = [ ("span", path) ] in
        Metrics.observe ~labels "span_seconds" dt;
        Metrics.observe ~labels "span_self_seconds" self;
        if prof then
          Metrics.observe ~labels "span_alloc_bytes"
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
  let self =
    fold_hists "span_self_seconds"
      (fun labels h acc -> (label "span" labels, Histogram.sum h) :: acc)
      []
  in
  List.sort compare
    (fold_hists "span_seconds"
       (fun labels h acc ->
         let path = label "span" labels in
         { span_path = path; span_calls = Histogram.count h;
           span_seconds = Histogram.sum h;
           span_self_seconds =
             Option.value ~default:0.0 (List.assoc_opt path self) }
         :: acc)
       [])

(* ------------------------------------------------------------------ *)
(* Oracle calls *)

(* Shared recording core: the call's series while enabled, and its
   event.  [at] is the absolute start stamp of the timed region. *)
let record_call ~oracle ~n ~arity ~size ~seconds ~at ~attrs =
  let seconds = Float.max 0.0 seconds in
  if !enabled_flag then begin
    let labels = [ ("oracle", oracle) ] in
    Metrics.observe ~labels "oracle_n" (float_of_int n);
    if size >= 0 then Metrics.observe ~labels "oracle_size" (float_of_int size);
    let lemma =
      match List.assoc_opt "lemma" attrs with
      | Some (Trace.Str s) -> s
      | _ -> "-"
    in
    Metrics.observe
      ~labels:
        [ ("l", if arity >= 0 then string_of_int arity else "-");
          ("lemma", lemma); ("oracle", oracle) ]
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
  fold_hists "oracle_n"
    (fun labels h acc ->
      match oracle with
      | Some o when List.assoc_opt "oracle" labels <> Some o -> acc
      | _ -> acc + Histogram.count h)
    0

(* ------------------------------------------------------------------ *)
(* Substitutions *)

let record_subst ?(width = -1) ~kind ~pre ~post ~fresh () =
  if !enabled_flag then begin
    let labels = [ ("kind", kind) ] in
    Metrics.observe ~labels "subst_pre_size" (float_of_int pre);
    Metrics.observe ~labels "subst_post_size" (float_of_int post);
    Metrics.inc ~labels ~by:(float_of_int fresh) "subst_fresh_vars"
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

(* Per-oracle aggregates off three families: [oracle_n] gives the calls
   and the n range, [oracle_size] the largest instance, and the
   [oracle_seconds] series the arity range (their [l] labels) and the
   time. *)
let aggregate () =
  let update name f aggs =
    List.map (fun (k, a) -> if k = name then (k, f a) else (k, a)) aggs
  in
  fold_hists "oracle_n"
    (fun labels h acc ->
      ( label "oracle" labels,
        { a_calls = Histogram.count h; a_n_min = imin h; a_n_max = imax h;
          a_l_min = max_int; a_l_max = -1; a_size_max = -1;
          a_seconds = 0.0 } )
      :: acc)
    []
  |> fold_hists "oracle_size" (fun labels h ->
         update (label "oracle" labels) (fun a -> { a with a_size_max = imax h }))
  |> fold_hists "oracle_seconds" (fun labels h ->
         update (label "oracle" labels) (fun a ->
             let a = { a with a_seconds = a.a_seconds +. Histogram.sum h } in
             match int_of_string_opt (label "l" labels) with
             | Some l ->
               { a with a_l_min = min a.a_l_min l; a_l_max = max a.a_l_max l }
             | None -> a))
  |> List.sort compare

let range lo hi =
  if hi < 0 then "-"
  else if lo = hi then string_of_int lo
  else Printf.sprintf "%d..%d" lo hi

(* Per-kind substitutions: count, max pre- and post-size, fresh sum. *)
let subst_aggregate () =
  let pre =
    fold_hists "subst_pre_size"
      (fun labels h acc -> (label "kind" labels, imax h) :: acc)
      []
  and fresh = ints "subst_fresh_vars" "kind" in
  List.sort compare
    (fold_hists "subst_post_size"
       (fun labels h acc ->
         let k = label "kind" labels in
         let get l = Option.value ~default:0 (List.assoc_opt k l) in
         (k, (Histogram.count h, get pre, imax h, get fresh)) :: acc)
       [])

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

(* What one run measured, and the metric catalogue it reports against. *)

module J = Tiny_json

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

type t = {
  workload : string;
  seed : int;
  digest : string;  (* of the generated inputs *)
  attempted : int;
  failed : int;  (* non-2xx + wrong answer + I/O error *)
  errors : string list;  (* process failures: start, exit code *)
  e2e : metric list;
  layers : metric list;  (* empty unless traced *)
  notes : metric list;  (* printed, not gated *)
}

let correct o = o.failed = 0 && o.errors = []

(* A slice of the measured window: answered operations, their
   latencies, the serving process's CPU time over the slice, and the
   share of the CPU time the VM wanted that the host withheld meanwhile
   (see Calib). *)
type sub = {
  ops : int;
  seconds : float;
  cpu_s : float;
  lat_ms : float array;
  withheld : float;
}

(* The end-to-end metrics of an untraced window cut into sub-windows.
   A sub-window in which the host withheld more than 5% of the CPU time
   the VM wanted, and more than in half of the run, is dropped: it
   measures the host, not the program.  Each time metric is taken per
   kept sub-window and reported as the median over them, so a neighbour
   busy for less than half of the run does not move it.  Then it is
   scaled by the machine speed measured over the run (see Calib), which
   takes out the slow phases that last longer.  The raw medians are
   kept as notes. *)
let kept subs =
  let subs = List.filter (fun s -> s.ops > 0) subs in
  let usual = Stats.median (Array.of_list (List.map (fun s -> s.withheld) subs)) in
  List.filter (fun s -> s.withheld <= Float.max 0.05 usual) subs

let per f subs = Array.of_list (List.map f (kept subs))

let throughput subs = Stats.median (per (fun s -> float_of_int s.ops /. s.seconds) subs)

let times subs =
  let median f = Stats.median (per f subs) in
  [ ("latency_p50_ms", median (fun s -> Stats.quantile s.lat_ms 0.5));
    ("latency_p90_ms", median (fun s -> Stats.quantile s.lat_ms 0.9));
    ("cpu_ms_per_op", median (fun s -> s.cpu_s *. 1000. /. float_of_int s.ops)) ]

let e2e ~scale ~setup_s ~rss_mb subs =
  let time name = metric name "ms" (List.assoc name (times subs) *. scale) in
  [ metric "setup_s" "s" (setup_s *. scale);
    metric "throughput_ops" "ops/s" (throughput subs /. scale);
    time "latency_p50_ms";
    time "cpu_ms_per_op";
    metric "peak_rss_mb" "MB" rss_mb ]

(* Printed next to the gated metrics but not gated.  The tail moves
   with the host more than any usable bound allows: in runs where the
   host withheld a sixth to a quarter of the CPU time, p90 on serve-hot
   rose by 40-75% even in the kept sub-windows, and p99 moves more.
   The times as measured, before scaling, come last. *)
let e2e_notes ~scale ~setup_s subs ~attempted ~failed =
  let lat_ms = Array.concat (List.map (fun s -> s.lat_ms) (kept subs)) in
  [ metric "latency_p90_ms" "ms" (List.assoc "latency_p90_ms" (times subs) *. scale);
    metric "latency_p99_ms" "ms" (Stats.quantile lat_ms 0.99 *. scale);
    metric "latency_samples" "count" (float_of_int (Array.length lat_ms));
    metric "sub_windows" "count" (float_of_int (List.length subs));
    metric "kept_sub_windows" "count" (float_of_int (List.length (kept subs)));
    metric "host_withheld" "ratio"
      (Stats.median (Array.of_list (List.map (fun s -> s.withheld) subs)));
    metric "error_ratio" "ratio"
      (if attempted = 0 then 0.
       else float_of_int failed /. float_of_int attempted);
    metric "machine_speed" "ratio" scale;
    metric "raw.setup_s" "s" setup_s;
    metric "raw.throughput_ops" "ops/s" (throughput subs) ]
  @ List.map (fun (name, v) -> metric ("raw." ^ name) "ms" v) (times subs)

(* Every per-layer metric, in report order.  A workload whose path does
   not go through a layer reports 0 for it (see README.md). *)
let layer_catalog =
  [ ("serve.daemon_wall_ms_p50", "ms");
    ("serve.wire_ms_p50", "ms");
    ("serve.http_parse_us", "us");
    ("serve.handler_us", "us");
    ("serve.encode_us", "us");
    ("serve.response_bytes", "bytes");
    ("serve.oracle_calls_per_req", "count");
    ("cache.shapley_hit_ratio", "ratio");
    ("cache.circuit_hit_ratio", "ratio");
    ("cache.counts_hit_ratio", "ratio");
    ("cache.evictions_per_req", "count");
    ("cache.entries", "count");
    ("cache.hit_us", "us");
    ("cache.fill_overhead_ratio", "ratio");
    ("db.load_ms", "ms");
    ("db.lineage_ms", "ms");
    ("circuits.compile_ms", "ms");
    ("circuits.gates", "count");
    ("circuits.kcount_ms", "ms");
    ("core.shapley_ms", "ms");
    ("core.shapley_alloc_mb", "MB");
    ("core.estimate_ms", "ms");
    ("core.estimate_samples", "count");
    ("core.estimate_evals", "count");
    ("counting.oracle_ms", "ms");
    ("counting.oracle_share", "ratio");
    ("core.reduce_ms", "ms");
    ("core.oracle_calls_per_answer", "count");
    ("obs.trace_overhead_ratio", "ratio") ]

let layers values =
  List.map
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0. (List.assoc_opt name values)))
    layer_catalog

let metrics_json ms =
  J.Obj
    (List.map
       (fun m ->
         (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
       ms)

(* The result line: end-to-end metrics untraced, per-layer traced. *)
let result_line o ~traced =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (correct o));
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", metrics_json (if traced then o.layers else o.e2e)) ])

(* The full record kept for the comparison mode. *)
let record_json o ~traced =
  J.Obj
    [ ("workload", J.Str o.workload);
      ("seed", J.Int o.seed);
      ("trace", J.Int (if traced then 1 else 0));
      ("digest", J.Str o.digest);
      ("correct", J.Bool (correct o));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("errors", J.List (List.map (fun e -> J.Str e) o.errors));
      ("metrics", metrics_json o.e2e);
      ("layers", metrics_json o.layers);
      ("notes", metrics_json o.notes) ]

let print_human o ~traced =
  Printf.printf "e2e %s seed=%d digest=%s\n" o.workload o.seed o.digest;
  let show m = Printf.printf "  %-30s %14.6g %s\n" m.name m.value m.unit in
  List.iter show o.e2e;
  List.iter show o.notes;
  if traced then begin
    Printf.printf "  per layer:\n";
    List.iter show o.layers
  end;
  Printf.printf "  attempted %d, failed %d%s\n" o.attempted o.failed
    (String.concat "" (List.map (fun e -> "; " ^ e) o.errors))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type spec_metric = { s_name : string; s_unit : string; lower_better : bool; bound : float }

type spec = { s_e2e : spec_metric list; s_layers : spec_metric list }

let load_spec path =
  let text = Wire.read_file path in
  let j = J.parse text in
  let metrics key =
    match Option.bind (J.member key j) J.to_list with
    | None -> failwith (path ^ ": no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let str k = Option.bind (J.member k m) J.to_str in
          { s_name = Option.get (str "name");
            s_unit = Option.get (str "unit");
            lower_better = str "better" = Some "lower";
            bound =
              Option.value ~default:0.
                (Option.bind (J.member "bound" m) J.to_float) })
        l
  in
  { s_e2e = metrics "end_to_end"; s_layers = metrics "per_layer" }

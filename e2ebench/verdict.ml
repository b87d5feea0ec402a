(* The comparison mode: two sets of untraced result records (a parent
   and a change), judged per workload and end-to-end metric against the
   bounds in BENCHMARK.json.

   - better: the change wins at least 9/10 of all (parent, change) run
     pairs, ties counting for neither, and the medians differ by more
     than the parent's own quartile spread;
   - unresolved: either side's quartile spread, as a share of its
     median, is wider than the bound, unless every change run reads
     better than every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - no-worse: otherwise. *)

module J = Tiny_json

type verdict = Better | No_worse | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | No_worse -> "no-worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge (m : Outcome.spec_metric) a b =
  let better x y = if m.Outcome.lower_better then x < y else x > y in
  let med_a = Stats.median a and med_b = Stats.median b in
  let q1a, q3a = Stats.quartiles a and q1b, q3b = Stats.quartiles b in
  let spread q1 q3 med = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
  let wins = ref 0 and pairs = Array.length a * Array.length b in
  Array.iter (fun x -> Array.iter (fun y -> if better y x then incr wins) b) a;
  let win = if pairs = 0 then 0. else float_of_int !wins /. float_of_int pairs in
  let all_better = !wins = pairs in
  let worse_by =
    if med_a = 0. then 0.
    else
      (if m.Outcome.lower_better then med_b -. med_a else med_a -. med_b)
      /. Float.abs med_a
  in
  let v =
    if win >= 0.9 && better med_b med_a && Float.abs (med_b -. med_a) > q3a -. q1a
    then Better
    else if
      (spread q1a q3a med_a > m.Outcome.bound || spread q1b q3b med_b > m.Outcome.bound)
      && not all_better
    then Unresolved
    else if worse_by > m.Outcome.bound then Worse
    else No_worse
  in
  (v, win, (med_a, q1a, q3a), (med_b, q1b, q3b))

(* Untraced records of a directory, as workload -> metric -> values. *)
let load dir =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".json" then
        let j = J.parse (Wire.read_file (Filename.concat dir file)) in
        if Option.bind (J.member "trace" j) J.to_int = Some 0 then
          match (Reference.str "workload" j, J.member "metrics" j) with
          | Some w, Some (J.Obj ms) ->
            List.iter
              (fun (name, v) ->
                match Option.bind (J.member "value" v) J.to_float with
                | Some x ->
                  let key = (w, name) in
                  Hashtbl.replace tbl key
                    (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                | None -> ())
              ms
          | _ -> ())
    (Sys.readdir dir);
  tbl

let run ~spec dir_a dir_b =
  let a = load dir_a and b = load dir_b in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) a [])
  in
  Printf.printf "%-13s %-16s %34s %34s %8s %5s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "win" "verdict";
  let worst = ref No_worse in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Outcome.spec_metric) ->
          let values t =
            Array.of_list
              (Option.value ~default:[] (Hashtbl.find_opt t (w, m.Outcome.s_name)))
          in
          let va = values a and vb = values b in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let v, win, (ma, q1a, q3a), (mb, q1b, q3b) = judge m va vb in
            if v = Worse then worst := Worse;
            Printf.printf "%-13s %-16s %12.5g [%9.5g, %9.5g] %12.5g [%9.5g, %9.5g] %+7.1f%% %5.2f  %s\n"
              w m.Outcome.s_name ma q1a q3a mb q1b q3b
              (if ma = 0. then 0. else (mb -. ma) /. Float.abs ma *. 100.)
              win (verdict_name v)
          end)
        spec.Outcome.s_e2e)
    workloads;
  !worst <> Worse

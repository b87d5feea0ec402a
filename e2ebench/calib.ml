(* The machine the program runs on, measured next to it.

   The benchmark runs on virtual machines whose host is shared with
   other tenants, and the host changes two things a run cannot control.

   Speed.  The CPUs run up to 1.7 times slower for seconds to minutes
   at a time.  A slow phase can cover a whole run, so no statistic over
   the samples of one run takes it out, and two sets of runs of the
   same code disagree by as much.  The benchmark therefore also times a
   fixed piece of CPU work that no code of the program runs, [chunk],
   while the program works, and scales every time metric of the run by
   [reference /. (median CPU time of the chunk)]: a time then reads as
   it would on a machine where the chunk takes [reference] seconds.
   The chunk is integer arithmetic over a 64 KiB table.  It allocates
   nothing, so the program's heap and garbage collector do not reach
   it, and it is timed in CPU time, so waiting for a CPU does not count.

   Steal.  The host also takes the VM's CPUs away for milliseconds at a
   time while the VM has work to run; Linux counts that time as steal
   in /proc/stat.  In some phases the host withholds a third or more of
   the CPU time the VM asks for.  Then every request that waits out
   such a gap is slow: tail latency doubles and throughput halves,
   whatever the program does, while the chunk's CPU time does not
   change.  So each sub-window records the share of the CPU time the VM
   wanted that the host withheld ([withheld]), and the metrics keep the
   sub-windows in which that share was low (see Outcome). *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let table = Array.make 8192 0

(* The CPU seconds of one chunk.  The process must run no other domain
   meanwhile. *)
let chunk () =
  let t0 = cpu_now () in
  let x = ref 0x2545f49 in
  for i = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 8191 in
    table.(j) <- table.(j) lxor i
  done;
  cpu_now () -. t0

(* The chunk's CPU time on an idle host: the fastest phase of a 2-vCPU
   virtual machine on an Intel Xeon at 2.1 GHz. *)
let reference = 0.002

(* How much faster the machine ran than the reference, from the chunk
   times of one run: times are multiplied by it, rates divided. *)
let scale samples = reference /. Stats.median samples

(* The VM's CPU time since boot, all CPUs, in clock ticks: what it ran
   and what the host withheld from it. *)
type host = { busy : float; steal : float }

let host () =
  let line =
    List.find
      (String.starts_with ~prefix:"cpu ")
      (String.split_on_char '\n' (Wire.read_file "/proc/stat"))
  in
  match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
  | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
    { busy = float_of_int (user + nice + system + irq + softirq);
      steal = float_of_int steal }
  | _ -> failwith "/proc/stat: no steal column"

(* The share of the CPU time the VM wanted between two readings that
   the host withheld. *)
let withheld a b =
  let steal = b.steal -. a.steal and busy = b.busy -. a.busy in
  if steal +. busy <= 0. then 0. else steal /. (steal +. busy)

(* [--child calibrate]: a chunk every 50 ms, its CPU seconds printed
   one per line, until SIGTERM. *)
let child () =
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  while not (Atomic.get stop) do
    Printf.printf "%.9f\n%!" (chunk ());
    (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done

(* The calibration child of a serve run. *)
let start ~stderr_path =
  Wire.spawn ~prog:Sys.executable_name ~args:[ "--child"; "calibrate" ] ~stderr_path

(* Stop it and return its chunk times. *)
let stop p =
  (try Unix.kill p.Wire.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let out = Wire.read_rest p ~timeout:10. in
  (match Wire.wait p ~timeout:10. with
   | Ok () -> ()
   | Error why -> failwith ("calibration child " ^ why));
  let samples =
    Array.of_list
      (List.filter_map float_of_string_opt (String.split_on_char '\n' out))
  in
  if Array.length samples = 0 then failwith "calibration child printed nothing";
  samples

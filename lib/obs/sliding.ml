(* Sliding-window SLO instruments, built on [Histogram] merge.

   A window is a ring of time buckets, each holding a request count, an
   error count and a latency histogram.  [observe] lands in the bucket
   of [now /. width]; a bucket whose epoch is stale is reset before
   reuse, so the ring needs no timer thread — rotation happens lazily
   on the writes and reads that touch it.  [snapshot] merges every
   bucket still inside the window (including the current partial one),
   which is exactly the associative/commutative merge the histogram
   already guarantees, so percentiles over the window cost one merge of
   at most [buckets] small histograms.

   The covered interval is (buckets-1)·width .. buckets·width seconds —
   the standard ring-buffer approximation of a true sliding window; 15
   buckets keep the quantization under 7% of the window.

   All state sits behind one mutex; [now] is injectable so tests drive
   rotation deterministically. *)

type bucket = {
  mutable b_epoch : int;
  mutable b_hist : Histogram.t;
  mutable b_requests : int;
  mutable b_errors : int;
}

type t = {
  w_width : float;  (* seconds per bucket *)
  w_buckets : bucket array;
  w_lock : Mutex.t;
}

let buckets = 15

let create ~window =
  if window <= 0. then invalid_arg "Sliding.create: window must be positive";
  { w_width = window /. float_of_int buckets;
    w_buckets =
      Array.init buckets (fun _ ->
          { b_epoch = min_int;
            b_hist = Histogram.create ();
            b_requests = 0;
            b_errors = 0 });
    w_lock = Mutex.create () }

let locked t f =
  Mutex.lock t.w_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.w_lock) f

let epoch_of t now = int_of_float (Float.floor (now /. t.w_width))

let slot t e =
  let n = Array.length t.w_buckets in
  ((e mod n) + n) mod n

let fresh_bucket t e =
  let b = t.w_buckets.(slot t e) in
  if b.b_epoch <> e then begin
    b.b_epoch <- e;
    b.b_hist <- Histogram.create ();
    b.b_requests <- 0;
    b.b_errors <- 0
  end;
  b

let observe ?now t ~ok seconds =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  locked t (fun () ->
      let b = fresh_bucket t (epoch_of t now) in
      b.b_requests <- b.b_requests + 1;
      if not ok then b.b_errors <- b.b_errors + 1;
      Histogram.observe b.b_hist (Float.max 0. seconds))

type snapshot = {
  w_requests : int;
  w_errors : int;
  w_error_ratio : float;  (* 0. when the window is empty *)
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;  (* nan when the window is empty *)
}

let snapshot ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  locked t (fun () ->
      let e = epoch_of t now in
      let lo = e - Array.length t.w_buckets + 1 in
      let requests = ref 0 and errors = ref 0 in
      let merged = Histogram.create () in
      Array.iter
        (fun b ->
          if b.b_epoch >= lo && b.b_epoch <= e then begin
            requests := !requests + b.b_requests;
            errors := !errors + b.b_errors;
            Histogram.merge_into ~into:merged b.b_hist
          end)
        t.w_buckets;
      { w_requests = !requests;
        w_errors = !errors;
        w_error_ratio =
          (if !requests = 0 then 0.
           else float_of_int !errors /. float_of_int !requests);
        w_p50 = Histogram.percentile merged 0.5;
        w_p95 = Histogram.percentile merged 0.95;
        w_p99 = Histogram.percentile merged 0.99 })

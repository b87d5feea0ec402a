(* Process-wide parallelism knob and the Obs-aware fan-out primitive.

   The reductions call [Par.map] wherever the paper's cost model makes
   the tasks independent oracle consultations (Lemma 3.3's n+1 arities,
   Lemma 3.2's n drop-vectors, Lemma 3.4's n positions, the PQE route's
   n+1 probability evaluations).  The knob defaults to [1], where
   [Pool.map] degrades to the exact sequential loop — so observability
   streams, ledgers and benchmark baselines are bit-identical to the
   pre-pool pipeline unless the user opts in with [--jobs]/[SHAPMC_JOBS].

   [map] snapshots the caller's Obs context (open spans and request
   buffer) and re-installs it around every task, so spans opened inside
   worker domains aggregate under the same hierarchical paths as a
   sequential run and their events reach the caller's request. *)

let jobs_knob = Atomic.make 1

let set_jobs n = Atomic.set jobs_knob (max 1 (min n 64))

let jobs () = Atomic.get jobs_knob

let map f xs =
  let j = jobs () in
  if j <= 1 then Array.map f xs
  else begin
    let ctx = Shapmc_obs.Obs.context () in
    let pool = Pool.create ~jobs:j in
    Pool.map pool (fun x -> Shapmc_obs.Obs.with_context ctx (fun () -> f x)) xs
  end

(** [map_n f n] is [| f 0; ...; f (n-1) |], fanned out like {!map}. *)
let map_n f n = map f (Array.init n (fun i -> i))

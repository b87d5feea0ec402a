(** Brute-force model counting by exhaustive enumeration.

    The reference oracle every other counter is tested against.  Counts are
    relative to an explicit universe [vars], which may strictly contain the
    variables of the formula (the paper's [#F] is over the [n] declared
    variables).  Exponential: callers are limited to 26 variables, as
    in {!Semantics}. *)

(* Every brute call enumerates 2^|vars| assignments; ledger the volume so
   the counter shows up next to DPLL branch counts in reports. *)
let observe ~what n =
  if Obs.observing () then begin
    Obs.incr ("brute." ^ what);
    if n <= 62 then Obs.add "brute.assignments" (1 lsl n)
  end

(* Counts are bounded by 2^26, the enumeration cap, so the accumulators
   are plain native ints; the enumeration works on assignment masks and
   allocates nothing per model. *)

let popcount mask =
  let c = ref 0 and m = ref mask in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

(** [count ~vars f] is [#F] over the universe [vars]. *)
let count ~vars f =
  let vars = Array.of_list vars in
  observe ~what:"counts" (Array.length vars);
  Bigint.of_int
    (Semantics.fold_model_masks ~vars f 0 (fun acc _ -> acc + 1))

(** [count_by_size ~vars f] is the vector [#_{0..n} F] over [vars]. *)
let count_by_size ~vars f =
  let vars_a = Array.of_list vars in
  let n = Array.length vars_a in
  observe ~what:"kcounts" n;
  let counts = Array.make (n + 1) 0 in
  Semantics.fold_model_masks ~vars:vars_a f () (fun () mask ->
      let k = popcount mask in
      counts.(k) <- counts.(k) + 1);
  Kvec.make ~n (Array.map Bigint.of_int counts)

(** Process-wide parallel oracle fan-out.

    A single knob ([set_jobs], the CLI's [--jobs]/[SHAPMC_JOBS]) selects
    how many domains {!map} may use.  At the default [jobs = 1], [map]
    IS [Array.map] — same evaluation order, same observability stream —
    so sequential behavior is bit-identical to the pre-pool pipeline. *)

(** [set_jobs n] sets the knob, clamped to [1..64]. *)
val set_jobs : int -> unit

val jobs : unit -> int

(** [map f xs] evaluates [f] over [xs] on up to [jobs ()] domains (see
    {!Pool.map} for ordering, exception and nesting guarantees).  The
    caller's {!Shapmc_obs.Obs.context} is re-installed around each
    task, so span paths aggregate as in a sequential run. *)
val map : ('a -> 'b) -> 'a array -> 'b array

(** [map_n f n] is [map f [|0; ...; n-1|]]. *)
val map_n : (int -> 'b) -> int -> 'b array

(** Query-answer explanation reports.

    The user-facing end of the database application: compute every
    endogenous tuple's Shapley value for a Boolean query (via
    {!Dichotomy}) and package the result as a ranked, printable report —
    the "explanations for query answers" use the paper's introduction
    motivates.  Used by the [shapmc lineage] CLI command. *)

type entry = {
  lvar : int;  (** the tuple's lineage variable *)
  relation : string;
  tuple : Value.t array;
  value : Rat.t;  (** the tuple's Shapley value *)
}

type report = {
  query : Cq.t;
  answer : bool;  (** [Q(D)] with all endogenous tuples present *)
  solver : Dichotomy.solver;
  entries : entry list;  (** sorted by decreasing Shapley value *)
}

(** [explain db q] builds the full report. *)
val explain : Database.t -> Cq.t -> report

(** [top_k report k] is the [k] highest-valued entries. *)
val top_k : report -> int -> entry list

(** [total report] is [Σ values] — equals [F(1) − F(0)] by Prop. 5, i.e.
    1 when the query is true on the full database and 0 otherwise (for
    positive queries). *)
val total : report -> Rat.t

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> report -> unit

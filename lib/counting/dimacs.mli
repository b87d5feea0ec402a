(** DIMACS CNF interchange (the model-counting community's standard
    format), so the counters and the Shapley pipeline can be pointed at
    external benchmark instances.

    Supported: the classic [p cnf <vars> <clauses>] header, clauses as
    0-terminated literal lists possibly spanning lines, [c] comment lines,
    and the [c p weight <lit> <w> 0] weight lines of the weighted
    model-counting track (rational or decimal weights). *)

type instance = {
  num_vars : int;
  clauses : Nf.clause list;
  weights : (int * Rat.t) list;
      (** positive-literal weights from [c p weight] lines, if any *)
}

(** [parse_string s] parses DIMACS CNF text.
    @raise Invalid_argument with a line-annotated message on error,
    among them a literal or weight line naming a variable outside
    [1..num_vars]. *)
val parse_string : string -> instance

val parse_file : string -> instance

(** [to_formula inst] is the conjunction of the clauses. *)
val to_formula : instance -> Formula.t

(** [variables inst] is [1..num_vars] (the declared universe: DIMACS
    counts over all declared variables, mentioned or not). *)
val variables : instance -> int list

(** [print inst] renders back to DIMACS text. *)
val print : instance -> string

(** Textual format for databases and queries (used by the [shapmc] CLI and
    the examples).

    Line-based:
    {v
      # comment
      rel R endo 1        -- declare relation: name, endo|exo, arity
      row R 1             -- insert tuple (values: integers, bare words
                          -- or quoted 'words' with a quote inside doubled)
      rel S exo 2
      row S 1 2
      query R(x), S(x,y)  -- the Boolean CQ (one per file)
    v} *)

(** [parse_string s] parses a database-plus-query description.
    @raise Invalid_argument with a line-annotated message on error. *)
val parse_string : string -> Database.t * Cq.t

(** [parse_file path] reads and parses [path]. *)
val parse_file : string -> Database.t * Cq.t

(** [parse_query s] parses just a query, e.g. ["R(x), S(x,y), T(y)"].
    Arguments starting with a letter are variables; integer literals and
    quoted ['...'] words are constants, read as [Value.literal] prints
    them: up to the first undoubled quote, so a constant may hold [,]
    and [)]. *)
val parse_query : string -> Cq.t

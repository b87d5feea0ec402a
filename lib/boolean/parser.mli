(** Textual syntax for Boolean formulas.

    Grammar (lowest to highest precedence):
    {v
      or   ::= and ('|' and)*
      and  ::= not ('&' not)*
      not  ::= '!' not | atom
      atom ::= '0' | '1' | ident | '(' or ')'
    v}
    Identifiers are [[A-Za-z_][A-Za-z0-9_']*]; identifiers of the shape
    [x<digits>] map to the variable with that number, other identifiers are
    interned in order of first occurrence, from one above the largest
    [x<digits>] anywhere in the input (from 1 when there is none), so a
    name never shares an id with a numbered variable: [a & !x1] gives
    [a] the id 2.  This is the format accepted by the [shapmc] CLI and
    emitted by {!Formula.pp}. *)

(** [formula_of_string s] parses, returning the formula and the name table
    (variable id -> source name).
    @raise Invalid_argument with a position-annotated message on error. *)
val formula_of_string : string -> Formula.t * (int * string) list

(** [formula_of_string_exn s] is [fst (formula_of_string s)]. *)
val formula_of_string_exn : string -> Formula.t

(** c2d-style NNF interchange for circuits.

    The de-facto format of knowledge compilers (c2d, d4, Dsharp): a header
    [nnf <nodes> <edges> <vars>], then one node per line — [L lit],
    [A k child...], [O j k child...] — children referenced by line index.
    Exporting lets external tools consume our compiled circuits; importing
    lets this library count/Shapley circuits produced by an external
    compiler.  Imported [O] nodes are trusted to be deterministic (as the
    format intends); [A] decomposability is re-checked structurally at
    construction. *)

(** [export g ~num_vars] renders the circuit in NNF format.  Negations
    must only occur on variables (true for everything this library
    compiles); [Disjoint] OR gates are emitted as plain [O] nodes (they
    are also deterministic-countable only via their disjointness, which
    the format cannot express, so importing them back treats them as
    deterministic — sound for counting iff they were in fact exclusive;
    {!export} therefore {b rejects} disjoint OR gates that are not also
    mutually exclusive… conservatively, any [Disjoint] gate).
    @raise Invalid_argument on inner negations, disjoint-OR gates, or a
    variable outside [1..num_vars] (c2d literals are nonzero), naming
    the variable. *)
val export : Circuit.node -> num_vars:int -> string

(** [import s] parses NNF text into a circuit.
    @raise Invalid_argument on malformed input or non-decomposable [A]
    nodes. *)
val import : string -> Circuit.node

val import_file : string -> Circuit.node

(** Database values.

    Plain integers and strings cover ordinary databases; [VPair] provides
    the composite values used by the Appendix B.1.2 construction, which
    folds a stretched attribute pair [(z1, x)] back into a single value of
    [Dom(z1) × Dom(x)] when showing [C_~Q ⊆ C_Q] (Claim 5.2). *)

type t =
  | VInt of int
  | VStr of string
  | VPair of t * t

let compare = Stdlib.compare
let equal = Stdlib.( = )

let rec pp ppf = function
  | VInt i -> Format.pp_print_int ppf i
  | VStr s -> Format.pp_print_string ppf s
  | VPair (a, b) -> Format.fprintf ppf "(%a,%a)" pp a pp b

(* The rendering of [pp], built directly: [Format.asprintf] allocates a
   formatter per call. *)
let rec to_string = function
  | VInt i -> string_of_int i
  | VStr s -> s
  | VPair (a, b) ->
    String.concat "" [ "("; to_string a; ","; to_string b; ")" ]

(* Cache keys fingerprint every stored value in this form.  A quoted
   string ends at its first undoubled quote, so the rendering is
   injective. *)
let rec literal = function
  | VInt i -> string_of_int i
  | VStr s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | VPair (a, b) -> String.concat "" [ "("; literal a; ","; literal b; ")" ]

let int i = VInt i
let str s = VStr s
let pair a b = VPair (a, b)

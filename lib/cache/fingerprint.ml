type t = int64

(* FNV-1a, 64-bit variant: offset basis and prime from the reference
   specification. *)
let empty = 0xcbf29ce484222325L

let prime = 0x100000001b3L

let add_char h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

(* A [for] loop over a local ref, not [String.iter] with a closure, so the
   compiler keeps the running digest unboxed instead of allocating an
   [int64] per byte. *)
let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_char !h (String.unsafe_get s i)
  done;
  (* A separator byte outside the folded alphabet, so concatenation
     boundaries matter: ["ab";"c"] and ["a";"bc"] digest differently. *)
  add_char !h '\x00'

let add_int h i = add_string h (string_of_int i)

let to_hex h = Printf.sprintf "%016Lx" h

let digest parts = to_hex (List.fold_left add_string empty parts)

let equal = Int64.equal

(** Minimal JSON: enough to read run-log lines and trace files back.

    The writer side of this codebase emits JSON by hand ({!Runlog},
    {!Trace}); this is the matching reader, kept dependency-free. Numbers
    are parsed as floats (ints in the logs are well below 2^53, so the
    round-trip is exact); objects preserve insertion order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val max_depth : int
(** The deepest nesting of arrays and objects {!parse} accepts (256). *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error, and so is nesting
    deeper than {!max_depth} (the parser recurses once per level, and
    socket input is untrusted). Errors carry a character offset and a
    short description. *)

val member : string -> t -> t option
(** First field of that name in an object; [None] on non-objects too. *)

val to_int : t -> int option
(** [Num] with an integral value. *)

val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

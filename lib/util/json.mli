(** Minimal JSON parser and printer, used to write the benchmark report
    and to schema-check the machine-readable outputs (metrics blocks,
    Chrome trace files) in tests and in the bench smoke run.  There is no
    JSON library in the build environment; this supports standard JSON:
    objects, arrays, strings with escapes, numbers, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [parse s] parses one JSON value, requiring only trailing whitespace
    after it.  [Error msg] carries a character offset. *)

val member : string -> t -> t option
(** Field lookup; [None] when the value is not an object or lacks the
    field. *)

val as_num : t -> float option
val as_str : t -> string option
val as_arr : t -> t list option
val as_obj : t -> (string * t) list option

val quote : string -> string
(** Render a string as a JSON string literal, escaping quotes, backslashes
    and control characters — the encoding dual of {!parse}'s string
    reader. *)

val to_string : t -> string
(** Render a value: containers holding only scalars on one line, anything
    else one member per line, indented.  Numbers print as the shortest
    decimal that parses back to the same float, so [parse (to_string v)]
    is [Ok v] for every [v] without non-finite numbers (those print as
    [null]). *)

(** Minimal JSON values for the [chasectl serve] wire protocol
    (docs/SERVICE.md): parse with positioned errors, print one-line
    documents.  Integers round-trip as [Int]; any number with a
    fraction or exponent parses as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Raised by {!parse} with a 1-based position into the input. *)
exception Error of { line : int; col : int; msg : string }

(** Parse exactly one JSON document (trailing input is an error).
    @raise Error on malformed input. *)
val parse : string -> t

(** One-line rendering; non-finite floats serialize as [null], strings
    are escaped as in [Obs.Jsonl]. *)
val to_string : t -> string

(** [member k v] is field [k] of object [v] ([None] elsewhere). *)
val member : string -> t -> t option

val to_str_opt : t option -> string option

(** An [Int], or an integral [Float] within the [int] range. *)
val to_int_opt : t option -> int option

val to_float_opt : t option -> float option

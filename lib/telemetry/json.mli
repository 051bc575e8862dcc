(** A minimal JSON value type with emitter and parser.

    Just enough for the exporters in this library (JSONL trace dumps,
    audit-log round-trips) without adding a dependency. Numbers are
    emitted with ["%.17g"] so finite floats round-trip exactly; the
    parser accepts the subset this emitter produces plus ordinary
    whitespace. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single line, no trailing newline. Non-finite numbers are emitted as
    [null] (JSON has no representation for them). *)

val of_string : string -> t
(** Raises [Failure] with a position on malformed input, including
    arrays and objects nested more than 512 deep. *)

(** {2 Accessors} — all raise [Failure] on a type mismatch. *)

val member : string -> t -> t
(** Field of an object; [Null] when absent. *)

val to_float : t -> float
val to_int : t -> int
val to_str : t -> string
val to_list : t -> t list

(** Minimal JSON tree, printer, and recursive-descent parser.

    Just enough for telemetry dumps and the CI bench comparator — the
    repo deliberately has no JSON dependency.  Numbers are all floats
    (integral values print without a decimal point); string escapes
    cover the ASCII range we emit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default false) adds newlines and two-space indentation.
    A non-finite [Num] (nan, infinity) prints as [null]. *)

val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
val to_obj : t -> (string * t) list option
val to_bool : t -> bool option

(** A minimal JSON implementation (the sealed environment has no JSON
    package).  Covers the subset the graph codec needs: objects, arrays,
    strings, integers, floats, booleans and null; strings support the
    standard escapes; numbers parse as [Int] when they are exact
    integers. *)

type compact
(** The compact rendering of a value, as [to_string v] gives it.
    {!compact} is its only producer, so it always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of compact
      (** A value already rendered: it stands for the value it renders.
          It renders as that text, byte for byte, and the accessors and
          {!equal} read it as that value.  A cached payload is kept and
          served this way, so a repeat reply copies its text instead of
          rendering it again. *)

val to_string : ?indent:int -> t -> string
(** Render; [indent > 0] pretty-prints with that step (default 0 =
    compact).  A non-finite float renders as [null], which is what
    parses back.  At indent 0 a [Raw] is copied as it is, and a
    top-level [Raw] is returned without a copy; at [indent > 0] it is
    parsed and re-rendered, so pretty output is the same whether a part
    of the value is [Raw] or not. *)

val to_line : t -> string
(** The compact rendering and a ['\n'], rendered into one buffer and
    copied out of it once: an NDJSON record. *)

val compact : t -> compact
(** [to_string v] kept as a {!compact}; [compact (Raw c)] is [c]. *)

val expand : t -> t
(** The parsed value of a [Raw], which holds no [Raw]; any other value
    as it is, including a [Raw] nested inside it. *)

val of_string : string -> (t, string) result
(** Parse a complete document; the error carries a byte offset.  A
    [\u] escape takes exactly four hex digits, and one past [\u007f]
    reads as ['?']. *)

(* Accessors used by decoders: all return [Error] with a path-qualified
   message rather than raising.  Each one parses a [Raw] it is given. *)

val member : string -> t -> (t, string) result
(** Field of an object; missing fields and non-objects are errors. *)

val member_opt : string -> t -> t option
(** [Some] field value when present on an object. *)

val to_int : t -> (int, string) result

val to_float : t -> (float, string) result
(** Accepts both [Float] and [Int] (integer-valued JSON numbers parse as
    [Int]; decoders of numeric fields usually want either). *)

val to_bool : t -> (bool, string) result

val to_str : t -> (string, string) result

val to_list : t -> (t list, string) result

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural, except that a [Raw] on either side compares by
    rendering: [Raw (compact v)] equals [v]. *)

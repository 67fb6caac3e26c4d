(** The repo's one JSON codec, Stdlib only. Writers (BENCH files, fuzz
    corpus cases, Chrome traces) keep their own printf templates, so
    their bytes never move, and share {!escape}; readers go through
    {!parse} or {!decode}. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** a number without fraction or exponent that fits an [int] *)
  | Float of float  (** every other number: [%.17g] output round-trips *)
  | String of string
  | List of t list
  | Object of (string * t) list  (** members in document order *)

type error = { offset : int; message : string }
(** [offset] is the byte position where parsing stopped. *)

val parse : string -> (t, error) result
(** Exactly one RFC 8259 document, surrounding whitespace allowed.
    Strict: literals are spelled out, numbers follow the JSON grammar,
    strings hold no raw control characters, nothing may follow the
    document. [\u] escapes decode to UTF-8; a lone surrogate is an
    error. *)

val error_to_string : error -> string
(** ["<message> at offset <n>"]. *)

val escape : string -> string
(** The body of a JSON string literal holding the given bytes, without
    the quotes: ['"'] and ['\\'] escaped, control characters in short
    form ([\n], [\t], [\r], [\b], [\f]) or as [\u00XX], all else
    verbatim. *)

(** {2 Accessors} — each raises [Decode_error] on a shape mismatch. *)

exception Decode_error of string

val member : string -> t -> t
(** The first member of that name of an object. *)

val to_int : t -> int
(** An {!Int} only: [1.5] and [1e3] are rejected. *)

val to_float : t -> float
(** An {!Int} or a {!Float}. *)

val to_bool : t -> bool
val to_string : t -> string
val to_list : t -> t list

val decode : string -> (t -> 'a) -> ('a, string) result
(** [decode text f] parses [text] and applies [f]; a parse error or a
    [Decode_error] from [f] becomes [Error]. *)

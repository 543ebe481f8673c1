(** JSON: the one module that writes and reads the system's JSON
    documents (trace events, metrics JSONL, bench reports, bench
    verdicts).  Stdlib only.

    A number keeps its literal text, so a document written here parses
    back to a value that prints the same bytes; writers build numbers
    only through {!int}, {!num} and {!fixed}.  Reads are strict: a torn
    JSONL line is skipped whole and a torn document refused.  Whole
    documents are written atomically by {!write_file}. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the literal text, e.g. ["1.500"] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

(** {1 Numbers} *)

val int : int -> t

(** the shared float spelling: [%.0f] when integral and below 1e15,
    else [%.6g]; nan and infinities as the strings ["nan"], ["inf"],
    ["-inf"] *)
val num : float -> t

(** the text {!num} spells, unquoted, for a human table *)
val num_text : float -> string

(** [fixed d v]: [v] with [d] decimals; non-finite as in {!num} *)
val fixed : int -> float -> t

(** {1 Printing} *)

(** compact, on one line: JSONL records and trace events *)
val to_line : t -> string

(** a pretty document ending in a newline.  A top-level object prints
    one member per line.  A member holding an empty list, or a list of
    objects or lists, prints one element per line; everything else
    prints inline with [", "] and [": "]. *)
val to_doc : t -> string

(** {1 Parsing} *)

(** a parse error (with a byte offset) or a value of the wrong kind *)
exception Error of string

(** exactly one document, surrounding whitespace allowed *)
val parse : string -> t

(** a Chrome trace_event array; a missing closing ["]"] (a crashed
    writer) is tolerated and reported as [(events, true)] *)
val parse_trace : string -> t list * bool

(** {1 Reading values} *)

(** member [k] of an object; [None] on a non-object *)
val mem : string -> t -> t option

(** These raise {!Error} on a missing member or a value of another
    kind, so a reader can skip a malformed record whole.  {!to_float}
    also takes the non-finite strings {!num} writes. *)

val field : string -> t -> t
val to_str : t -> string
val to_list : t -> t list
val to_float : t -> float
val to_int : t -> int

(** {1 Files} *)

(** the whole file; raises [Sys_error] *)
val read_file : string -> string

(** [write_file path text] writes [path ^ ".tmp"] and renames it over
    [path], so a reader sees the old file or the new one, never a torn
    one.  Raises [Sys_error]. *)
val write_file : string -> string -> unit

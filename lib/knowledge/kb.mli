(** The knowledge base (paper Sec. III-E): a standardized store for program
    characterizations and optimization experiments, with a documented
    line-oriented text format that round-trips exactly.

    Format:
    {v
    mira-kb 1
    char|<prog>|<arch>|<o0_cycles>|f:name=v,...|c:name=v,...
    exp|<prog>|<arch>|<pass,pass,...>|<cycles>|<code_size>
    v}
    Floats are printed with [%h] so values survive save/load bit-exactly. *)

type characterization = {
  prog : string;
  arch : string;
  o0_cycles : int;
  features : (string * float) list;  (** static code features *)
  counters : (string * float) list;  (** per-instruction counter rates *)
}

type experiment = {
  eprog : string;
  earch : string;
  seq : Passes.Pass.t list;
  cycles : int;
  code_size : int;
}

type t = {
  mutable chars : characterization list;
  mutable exps : experiment list;
}

val create : unit -> t

(** add/replace the characterization for its (prog, arch) *)
val add_characterization : t -> characterization -> unit

val add_experiment : t -> experiment -> unit
val characterization : t -> prog:string -> arch:string -> characterization option
val experiments : t -> prog:string -> arch:string -> experiment list

(** distinct characterized program names, sorted *)
val programs : t -> string list

(** number of stored experiments *)
val size : t -> int

(** lowest-cycle experiment for a program *)
val best : t -> prog:string -> arch:string -> experiment option

(** experiments within [within] (e.g. [1.05] = 5%) of the program's best *)
val good_experiments :
  t -> prog:string -> arch:string -> within:float -> experiment list

(** the [k] best experiments, optionally restricted to sequences of a
    given length (so long fixed pipelines do not crowd out the searchable
    space) *)
val top_experiments :
  t -> prog:string -> arch:string -> k:int -> ?length:int -> unit ->
  experiment list

(** a copy with one program's records removed: the leave-one-out protocol *)
val without_program : t -> prog:string -> t

exception Parse_error of string

val to_string : t -> string

(** @raise Parse_error on malformed input *)
val of_string : string -> t

(** writes [path ^ ".tmp"] and renames it over [path], so a save that
    raises (a name holding ['|'], [','] or a newline raises
    {!Parse_error}) or is killed leaves any previous file whole.
    @raise Sys_error on IO failure *)
val save : t -> string -> unit

(** @raise Parse_error on malformed input, [Sys_error] on IO failure *)
val load : string -> t

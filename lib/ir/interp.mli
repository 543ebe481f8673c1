(** Reference execution engine for the IR.

    Shared between the functional interpreter (the semantics oracle of the
    differential tests) and the cycle-level simulator: the simulator
    supplies {!hooks} observing every executed instruction, memory access
    (with byte address) and conditional branch (with a stable site id).
    With {!no_hooks} this is a plain interpreter.

    Semantics: native wrap-around ints; division/remainder by zero,
    out-of-bounds accesses, out-of-range shifts ([not in 0..62]) and reads
    of never-written registers trap; local arrays and globals beyond their
    initializers are zero-initialized. *)

type payload = IA of int array | FA of float array

type arr = {
  payload : payload;
  base : int;     (** byte address in the simulated address space *)
  esize : int;    (** element size: 8, or 4 for packed arrays *)
  mask32 : bool;  (** packed: stores keep only the low 32 bits *)
}

type value =
  | VUndef
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VArr of arr

exception Trap of string
exception Out_of_fuel

type hooks = {
  on_instr : Ir.instr -> unit;
  on_load : int -> unit;            (** byte address *)
  on_store : int -> unit;
  on_branch : int -> bool -> unit;  (** site id, taken *)
  on_jump : unit -> unit;           (** unconditional jmp / ret *)
}

val no_hooks : hooks

type site_table = {
  sites : (string * int, int) Hashtbl.t;
  mutable count : int;
}

(** stable per-program ids for conditional-branch sites (predictor keys) *)
val build_sites : Ir.program -> site_table

type result = {
  ret : value;
  output : string;
  steps : int;  (** dynamic instruction count, terminators included *)
}

val value_to_string : value -> string
val arr_len : arr -> int
val default_fuel : int

(** {2 Address-space layout}

    Shared with the flat engine ({!Decode}): both engines must hand the
    machine simulator identical byte addresses. *)

val global_base : int
val stack_base : int
val align64 : int -> int

(** a global's memory at byte address [base]: its [ginit], then zeros
    up to [gsize].  Both engines build their global table from it, each
    global based at the previous one's end, [align64]ed.
    @raise Invalid_argument when [ginit] is longer than [gsize]
    ({!Ir.check_program} reports that) *)
val global_arr : base:int -> Ir.global -> arr

(** Run a program from its main function.
    @raise Trap on runtime errors
    @raise Out_of_fuel when the step budget is exhausted *)
val run : ?fuel:int -> ?hooks:hooks -> Ir.program -> result

(** {2 Observable behaviour}

    What optimization passes must preserve: the outcome kind, return
    value and printed output.  Trap messages are not compared (their
    wording may change under optimization); the {e fact} of trapping is
    the observable. *)

type observation =
  | Finished of string * string  (** return value, printed output *)
  | Trapped of string
  | Diverged

val observe : ?fuel:int -> Ir.program -> observation
val equal_observation : observation -> observation -> bool
val pp_observation : Format.formatter -> observation -> unit

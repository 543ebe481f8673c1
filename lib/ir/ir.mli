(** Three-address intermediate representation.

    A function is a control-flow graph of basic blocks over an unbounded
    set of virtual registers.  The IR is deliberately {e not} SSA:
    registers are mutable cells, which keeps phase-ordering effects (the
    object of study in the reproduced paper) directly visible to the
    passes.  Memory consists solely of one-dimensional arrays: local
    frame slots, global symbols, or array-typed parameters, all referred
    to through runtime handles. *)

type reg = int
type label = int

module LMap : Map.S with type key = int
module LSet : Set.S with type elt = int
module RSet : Set.S with type elt = int
module SMap : Map.S with type key = string

type operand =
  | Reg of reg
  | Cint of int
  | Cfloat of float
  | Cbool of bool
  | AGlob of string  (** handle of a global array *)
  | ALoc of string   (** handle of a local (frame) array *)

type arith = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type farith = FAdd | FSub | FMul | FDiv
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Bin of arith * reg * operand * operand
  | Fbin of farith * reg * operand * operand
  | Icmp of cmp * reg * operand * operand
  | Fcmp of cmp * reg * operand * operand
  | Not of reg * operand                  (** boolean negation *)
  | Mov of reg * operand
  | I2f of reg * operand
  | F2i of reg * operand
  | Load of reg * operand * operand       (** dst <- arr[idx] *)
  | Store of operand * operand * operand  (** arr[idx] <- value *)
  | Alen of reg * operand                 (** dst <- len arr *)
  | Call of reg option * string * operand list
  | Print of operand

type term =
  | Jmp of label
  | Br of operand * label * label  (** cond, then, else *)
  | Ret of operand option

type block = { instrs : instr list; term : term }

type elt =
  | EltInt
  | EltFloat
  | EltInt32
      (** packed 4-byte unsigned element, produced by the array-packing
          optimization: stores are masked to 32 bits, loads zero-extend;
          only used for global arrays whose stored values are provably in
          [0, 2^32), so packing is observation-equivalent *)

type func = {
  name : string;
  params : reg list;
  nregs : int;    (** registers 0..nregs-1 are in use *)
  entry : label;
  blocks : block LMap.t;
  nlabels : int;  (** labels 0..nlabels-1 may be in use *)
  locals : (string * elt * int) list;  (** local arrays: name, elt, size *)
}

type global = {
  gname : string;
  gelt : elt;
  gsize : int;
  ginit : float array;
      (** initial values (ints stored as floats) up to the last one that
          is not +0.0: every element from [Array.length ginit] to [gsize]
          starts at zero.  [Lower] builds it so, keeping only what the
          source wrote.  Never longer than [gsize] ({!check_program}); a
          zero tail written out is the same memory but a different
          program digest. *)
}

type program = { globals : global list; funcs : func SMap.t; main : string }

(** {2 Construction helpers} *)

val block : ?instrs:instr list -> term -> block

(** @raise Invalid_argument when the label does not exist *)
val find_block : func -> label -> block

val fresh_reg : func -> func * reg
val fresh_label : func -> func * label

(** @raise Invalid_argument when the function does not exist *)
val find_func : program -> string -> func

val update_func : program -> func -> program
val map_funcs : (func -> func) -> program -> program

(** {2 Structural queries} *)

(** the register defined by an instruction, if any *)
val def_of : instr -> reg option

(** all operands of an instruction, in order *)
val ops_of : instr -> operand list

(** the registers read by an instruction *)
val uses_of : instr -> reg list

(** the registers read by a terminator *)
val term_uses : term -> reg list

(** successor labels (deduplicated for [Br] with equal targets) *)
val successors : term -> label list

(** rebuild an instruction with operands mapped through [fo] and the
    defined register through [fd] *)
val map_instr : fo:(operand -> operand) -> fd:(reg -> reg) -> instr -> instr

val map_term : fo:(operand -> operand) -> fl:(label -> label) -> term -> term

(** static instruction count + one per terminator: the code-size metric *)
val func_size : func -> int

val program_size : program -> int
val block_count : func -> int

(** {2 Pretty printing} *)

val pp_operand : Format.formatter -> operand -> unit
val string_of_arith : arith -> string
val string_of_farith : farith -> string
val string_of_cmp : cmp -> string
val pp_instr : Format.formatter -> instr -> unit
val pp_term : Format.formatter -> term -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
val func_to_string : func -> string
val to_string : program -> string

(** {2 Well-formedness}

    Every referenced label/register/array must resolve, and no global
    has more initializers than elements.  Passes must
    preserve well-formedness; the test suite checks it after every pass
    on every workload. *)

type wf_error = string

val check_func : global list -> func -> wf_error list
val check_program : program -> wf_error list

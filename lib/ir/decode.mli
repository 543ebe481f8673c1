(** Pre-decoded flat execution engine.

    {!decode} translates an {!Ir.program} once into a flat array bytecode:
    one [dinstr] record per static instruction {e and} terminator, with

    - operands pre-resolved to (kind, payload) pairs — register slot,
      inline int/bool immediate, float-pool index, or interned
      global/local array index — so the hot loop never touches an
      [Ir.operand] or a hashtable;
    - branch targets compiled to code offsets and conditional-branch
      sites numbered exactly like {!Interp.build_sites} (so the machine
      simulator's predictor sees identical site ids);
    - callee names resolved to function indices;
    - the registers read by each simple ALU op precomputed as an [int
      array] (the machine simulator's issue model consumes these without
      the per-dynamic-instruction [Ir.uses_of] list allocation).

    {!run} executes the decoded form on unboxed register files: per
    frame, an [int array] (ints and bools), a [float array], an array of
    array handles, and a byte-sized tag plan tracking the dynamic type of
    every register.  The tag plan — rather than a fully static type
    assignment — is what preserves the reference interpreter's exact
    semantics on {e hostile} inputs: reading a never-written register,
    int/float/bool confusion, and unknown global/local/function names
    all trap with the same messages as {!Interp.run}.  (A static plan
    would be sound only for well-typed lowered code, and the fuzzer
    feeds both engines deliberately broken programs.)

    {!Exec} is the one dispatch loop over the decoded form, with four
    hooks for a machine model; {!run} is that loop with none, and
    [Mach.Flatsim] supplies the cycle-level model.  The flat engine is
    bit-identical to {!Interp.run} on return value, printed output,
    [steps], and trap behaviour; the test suite and the differential
    fuzzer enforce this.  {!Interp.run} remains the semantics oracle.

    One edge differs from the reference simulator, on ill-formed IR
    only (a "bad reg" or "bad def" from {!Ir.check_program}): a
    simple-issue op with a negative register id raises
    [Invalid_argument] from its operand read or write, after any earlier
    operand's trap, where the reference simulator raises it from its
    issue stamps before reading an operand.

    The decoded representation and the runtime are exposed transparently
    so that [Mach.Mtrace] (trace generation) can drive its own loop over
    the same bytecode. *)

(** dense opcode: instruction kind and sub-operation in one constructor *)
type op =
  | OAdd | OSub | OMul | ODiv | ORem | OAnd | OOr | OXor | OShl | OShr
  | OFAdd | OFSub | OFMul | OFDiv
  | OIeq | OIne | OIlt | OIle | OIgt | OIge
  | OFeq | OFne | OFlt | OFle | OFgt | OFge
  | ONot | OMov | OI2f | OF2i
  | OLoad | OStore | OAlen | OCall | OPrint
  | OJmp   (** [dst] = target pc *)
  | OBr    (** operand A = condition, [dst]/[b] = then/else pc, [c] = site id *)
  | ORetN
  | ORetV
  | OBadLabel
      (** jump target that does not exist; executing it reproduces the
          reference engine's [Invalid_argument] from {!Ir.find_block} *)

(** {2 Operand kinds} — the [ak]/[bk]/[ck] fields of {!dinstr} *)

(** payload: register slot *)
val k_reg : int

(** payload: the int immediate itself *)
val k_int : int

(** payload: index into the program's float pool *)
val k_flt : int

(** payload: 0 or 1 *)
val k_bool : int

(** payload: global-array index *)
val k_glob : int

(** payload: frame-local array index *)
val k_loc : int

(** unknown global; payload: name-pool index *)
val k_gunk : int

(** unknown local; payload: name-pool index *)
val k_lunk : int

(** operand absent *)
val k_none : int

(** {2 Latency classes}

    The [cls] argument of {!MODEL.long}: which configured latency a
    long op pays.  [Mach.Mtrace]'s long-run events use the same
    numbers. *)

val cls_mul : int    (** Mul *)

val cls_div : int    (** Div and Rem *)

val cls_fadd : int   (** FP add/sub/compare and int/float conversions *)

val cls_fmul : int
val cls_fdiv : int
val cls_call : int
val cls_print : int

val cls_jump : int   (** Jmp and Ret; {!MODEL.jump} fires for these *)

val cls_count : int

(** single-cycle ALU ops (Add/Sub/logic/shifts, Icmp, Not, Mov, Alen),
    which fire no hook; every other op but [OBadLabel] fires one *)
val is_simple : op -> bool

type dinstr = {
  op : op;
  dst : int;  (** destination register ([-1] = none), or branch target pc *)
  ak : int;
  a : int;    (** operand A (kind, payload); [OBadLabel]: the missing label *)
  bk : int;
  b : int;    (** operand B; [OBr]: else-target pc *)
  ck : int;
  c : int;    (** operand C ([OStore] value); [OBr]: branch site id *)
  args : int array;  (** [OCall]: interleaved (kind, payload) pairs *)
  callee : int;      (** [OCall]: function index, [-1] = unknown *)
  sname : string;    (** [OCall]: callee name (for trap messages) *)
  uses : int array;  (** registers read — filled for simple-issue ops *)
}

type dfunc = {
  fname : string;
  params : int array;
  nregs : int;
  code : dinstr array;
  entry_pc : int;
  base : int;  (** global code offset of [code.(0)]: functions are laid
                   end to end in [funcs] order *)
  locals : (string * Ir.elt * int) array;  (** frame arrays, decl order *)
}

type t = {
  funcs : dfunc array;     (** in [Ir.SMap] binding order *)
  main_idx : int;          (** index of [main], [-1] = absent *)
  main_name : string;
  globals : Ir.global array;  (** declaration order: fixes base addresses *)
  fpool : float array;     (** interned float constants *)
  names : string array;    (** interned unknown global/local names *)
  max_args : int;          (** widest static call, sizes the arg scratch *)
  nsites : int;            (** conditional-branch sites (predictor keys) *)
}

val decode : Ir.program -> t

(** static instruction slots (instructions + terminators): one past the
    largest global code offset *)
val code_size : t -> int

val arr_len : Interp.arr -> int

(** {2 Runtime internals}

    Exposed so that [Mach.Mtrace] can write its own dispatch loop over
    the same frames and operand accessors.  Everything here preserves
    the reference engine's trap messages and evaluation order
    exactly. *)

(** per-activation register file: [tags.(r)] is 0 undef / 1 int /
    2 float / 3 bool / 4 array, with the payload in the matching array
    ([ints] doubles as bool storage, 0/1) *)
type frame = {
  df : dfunc;
  tags : int array;
  ints : int array;
  flts : float array;
  arrs : Interp.arr array;
  mutable locals : Interp.arr array;  (** filled after params are bound *)
}

(** per-run mutable state.  [s_*] is a one-value scratch cell used for
    operands of any type (Mov/Print/Ret/Call argument and return);
    [arg_*] buffers call arguments between evaluation and binding. *)
type rt = {
  dp : t;
  garr : Interp.arr array;
  buf : Buffer.t;
  mutable fuel : int;
  mutable steps : int;
  mutable sp : int;
  mutable s_tag : int;
  mutable s_int : int;
  mutable s_flt : float;
  mutable s_arr : Interp.arr;
  arg_tags : int array;
  arg_ints : int array;
  arg_flts : float array;
  arg_arrs : Interp.arr array;
}

val make_rt : ?fuel:int -> t -> rt

(** raise {!Interp.Trap} with a formatted message *)
val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** allocate the register file for one activation ([locals] left empty) *)
val new_frame : t -> int -> frame

(** copy [n] buffered arguments into the frame's parameter registers *)
val bind_params : rt -> frame -> int -> unit

(** allocate frame arrays in declaration order, bumping [rt.sp] and
    trapping on stack overflow exactly like the reference engine *)
val alloc_locals : rt -> dfunc -> Interp.arr array

(** Operand accessors: [kind], [payload] from a {!dinstr} field pair.
    Trap like the reference — undefined-register and unknown-name traps
    fire before type-conversion traps. *)

val geti : rt -> frame -> int -> int -> int
val getf : rt -> frame -> int -> int -> float
val getb : rt -> frame -> int -> int -> bool
val geta : rt -> frame -> int -> int -> Interp.arr

(** evaluate an operand of any type into the [s_*] scratch cell *)
val eval_any : rt -> frame -> int -> int -> unit

val set_int : frame -> int -> int -> unit
val set_flt : frame -> int -> float -> unit
val set_bool : frame -> int -> bool -> unit

(** write the scratch cell to a register (call returns, [Mov]) *)
val set_scratch : rt -> frame -> int -> unit

(** buffer the scratch cell as call argument [j] *)
val save_arg : rt -> int -> unit

(** scratch cell (holding main's return) + output + steps as a result *)
val result_of : rt -> Interp.result

val shift_ok : int -> bool

(** the [Icmp]/[Fcmp] arms (shared with trace generation); the int
    selects the comparison: 0 eq, 1 ne, 2 lt, 3 le, 4 gt, 5 ge *)
val do_icmp : rt -> frame -> dinstr -> int -> unit

val do_fcmp : rt -> frame -> dinstr -> int -> unit

(** {2 The dispatch loop} *)

(** A machine model's hooks.  [gpc] is the op's global code offset
    ([base] + pc), so a model can keep per-op tables as flat arrays.
    Simple-issue ops ({!is_simple}) fire no hook, and [OBadLabel] none.

    - [long m gpc cls]: Mul, Div, Rem, FP ops, conversions, Call and
      Print, before any operand is read (a call's before its arguments);
    - [mem m gpc write addr]: a load or store of byte address [addr],
      after the bounds check and before a store's element-type check;
    - [branch m gpc site taken]: a conditional branch, after its
      condition is read;
    - [jump m gpc]: Jmp and Ret, before a return operand is read. *)
module type MODEL = sig
  type t

  val long : t -> int -> int -> unit
  val mem : t -> int -> bool -> int -> unit
  val branch : t -> int -> int -> bool -> unit
  val jump : t -> int -> unit
end

module Exec (M : MODEL) : sig
  (** Execute a decoded program, firing [M]'s hooks on the given model
      state.  Returns what {!run} does.
      @raise Interp.Trap on runtime errors
      @raise Interp.Out_of_fuel when the step budget is exhausted *)
  val run : fuel:int -> M.t -> t -> Interp.result
end

(** Execute a decoded program (plain interpretation: {!Exec} over a
    model whose hooks do nothing).
    Bit-identical to {!Interp.run} with {!Interp.no_hooks}.
    @raise Interp.Trap on runtime errors
    @raise Interp.Out_of_fuel when the step budget is exhausted *)
val run : ?fuel:int -> t -> Interp.result

(** [decode] + [run] *)
val run_program : ?fuel:int -> Ir.program -> Interp.result

(** flat-engine {!Interp.observation} (same contract as {!Interp.observe}) *)
val observe : ?fuel:int -> Ir.program -> Interp.observation

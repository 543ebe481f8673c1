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
    hooks for a machine model; {!run} is that loop with none.  Two
    models carry the machine: [Mach.Flatsim] charges cycles as the
    program runs, and [Mach.Mtrace] records the event trace that
    [Mach.Replay] prices per config.  The flat engine is bit-identical
    to {!Interp.run} on return value, printed output, [steps], and trap
    behaviour; the test suite and the differential fuzzer enforce this.
    {!Interp.run} remains the semantics oracle.

    One edge differs from the reference simulator, on ill-formed IR
    only (a "bad reg" or "bad def" from {!Ir.check_program}): a
    simple-issue op with a negative register id raises
    [Invalid_argument] from its operand read or write, after any earlier
    operand's trap, where the reference simulator raises it from its
    issue stamps before reading an operand.

    The decoded representation is exposed so that models can build
    per-op tables from the static code; the runtime is abstract. *)

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

(** {2 The dispatch loop} *)

(** per-run state: globals, register frames, fuel, steps and printed
    output *)
type rt

(** a fresh runtime for one run of the program *)
val make_rt : ?fuel:int -> t -> rt

(** main's return value, the output printed so far and the steps taken
    so far.  After a trap or fuel exhaustion, [output] and [steps] are
    the stopped run's and [ret] is meaningless. *)
val result_of : rt -> Interp.result

(** A machine model's hooks.  [gpc] is the op's global code offset
    ([base] + pc), so a model can keep per-op tables as flat arrays.
    Simple-issue ops ({!is_simple}) fire no hook, and [OBadLabel] none.

    - [long m gpc cls]: Mul, Div, Rem, FP ops, conversions, Call and
      Print, before any operand is read (a call's before its arguments);
    - [mem m gpc write addr]: a load or store of byte address [addr],
      after the bounds check and before a store's element-type check;
    - [branch m gpc site taken]: a conditional branch, after its
      condition is read;
    - [jump m gpc]: Jmp and Ret, before a return operand is read.

    A static run of simple-issue ops, the slots before a non-simple
    one, is only ever entered at its first slot: a block start, a
    function entry or a call's return site.  So when the op that ends a
    run fires its hook, the whole run has just executed once, and both
    machine models charge the run there. *)
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

  (** Run [main] on a runtime the caller made, so that the caller can
      still read {!result_of} after a trap or fuel exhaustion.
      [run ~fuel m dp] is [make_rt ~fuel dp], then [start], then
      {!result_of}.
      @raise Interp.Trap on runtime errors, and when [main] is missing
      @raise Interp.Out_of_fuel when the step budget is exhausted *)
  val start : rt -> M.t -> unit
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

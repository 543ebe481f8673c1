(** Cycle-level simulation of a pre-decoded program.

    The flat counterpart of {!Sim}: instead of hanging five closure
    hooks off the reference interpreter, this module is the machine
    model of {!Mira.Decode.Exec}, the one dispatch loop over
    {!Mira.Decode} bytecode.  The loop fires the model only at long ops,
    memory accesses, conditional branches, and jumps and returns; simple
    ALU ops cost nothing as they execute:

    - each run of simple-issue ops is charged its bundle cycles by the
      op that ends it, from a table of {!run_cycles} built per
      (program, issue width) when {!run} starts.  Exact because every
      such run starts from an empty bundle: it follows an op that closes
      one, or the program start;
    - each block's instruction-class counters are charged once per
      execution of its terminator, and folded into the bank when the run
      finishes ({!charge_blocks}).

    The trace engine prices a recorded run from the same pieces: its
    run table through {!run_cycles}, its [base] bank through
    {!charge_blocks}, and its memory and branch stream through
    {!fold_stream}.

    The model itself is {e identical} to {!Sim}'s: same bundle issue
    rules, same cache hierarchy and predictor state evolution, same
    counter totals, and the hooks fire at the same points relative to
    operand evaluation as the reference hooks (a store's cache access
    happens before its element-type check, a call's overhead before its
    arguments are evaluated).  The differential tests compare cycles and
    the full counter bank against {!Sim} run with the reference engine.

    Cycles and counters exist only for a run that finishes: a trap or
    fuel exhaustion raises, and the partial accounting is dropped.  One
    edge differs from {!Sim}'s reference engine, on ill-formed IR only
    (a "bad reg" or "bad def" from {!Mira.Ir.check_program}): a
    simple-issue op with a negative register id raises
    [Invalid_argument] from its operand read or write, after any earlier
    operand's trap, where the reference raises it from its issue stamps
    before any operand is read. *)

type result = {
  cycles : int;
  counters : Counters.bank;
  ret : Mira.Interp.value;
  output : string;
  steps : int;
}

(** Run a decoded program on the simulated machine.
    @raise Mira.Interp.Trap on runtime errors
    @raise Mira.Interp.Out_of_fuel when the step budget is exhausted *)
val run : config:Config.t -> fuel:int -> Mira.Decode.t -> result

(** {2 What the trace engine shares}

    {!Mtrace} and {!Replay} price a recorded trace with this module's
    own plan, block counters, cache, predictor and latency code, so the
    two engines agree structurally. *)

(** timing state; machine parameters pre-extracted from {!Config.t} so
    the hot loop reads flat record fields *)
type mt = {
  bank : Counters.bank;
  l1 : Cache.t;
  l2 : Cache.t;
  bp : Predictor.t;
  mutable cycles : int;
  issue_width : int;
  lat_mul : int;
  lat_div : int;
  lat_fadd : int;
  lat_fmul : int;
  lat_fdiv : int;
  branch_cost : int;
  jump_cost : int;
  mispredict_penalty : int;
  call_overhead : int;
  print_cost : int;
  l1_lat : int;
  l2_lat : int;
  mem_lat : int;
}

(** fresh model state (cold caches, weakly-taken predictor) for a config *)
val mk_mt : Config.t -> mt

(** the config's latency per latency class ({!Mira.Decode.cls_mul} ..
    {!Mira.Decode.cls_jump}) *)
val lat_table : mt -> int array

(** pin TOT_CYC to [cycles] *)
val finish : mt -> unit

(** [run_cycles ~width ~uses ~dst first len]: the cycles of a run of
    [len] simple-issue ops, rows [first] to [first + len - 1] of the
    (registers read, register defined) columns, issued [width] per
    bundle from an empty bundle, including the drain of its last
    bundle.  Register ids are only compared.  The flat engine's per-op
    plan and the trace engine's run table are both priced by it. *)
val run_cycles :
  width:int -> uses:int array array -> dst:int array -> int -> int -> int

(** [charge_blocks dp visits bank] adds every op's instruction-class
    counters (all the config-independent ones but BR_TKN), times the
    executions of its block's terminator in [visits] (gpc -> count).
    Exact for a run that finished. *)
val charge_blocks : Mira.Decode.t -> int array -> Counters.bank -> unit

(** the cache and predictor fold over an {!Mtrace} stream: each memory
    word through the L1/L2 hierarchy and each branch word through the
    predictor, in order, adding their cycles and counters to [mt] *)
val fold_stream : mt -> int array -> unit

(** Cycle-level simulation of a pre-decoded program.

    The flat counterpart of {!Sim}: instead of hanging five closure
    hooks off the reference interpreter, this module is the machine
    model of {!Mira.Decode.Exec}, the one dispatch loop over
    {!Mira.Decode} bytecode.  The loop fires the model only at long ops,
    memory accesses, conditional branches, and jumps and returns; simple
    ALU ops cost nothing as they execute:

    - each run of simple-issue ops is charged its bundle cycles by the
      op that ends it, from a table built per (program, issue width)
      when {!run} starts.  Exact because every such run starts from an
      empty bundle: it follows an op that closes one, or the program
      start;
    - each block's instruction-class counters are charged once per
      execution of its terminator, and folded into the bank when the run
      finishes.

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

(** {2 Machine-model state}

    Exposed so that {!Replay} folds a recorded event trace through the
    same cache, predictor and latency code this module's hooks run. *)

(** timing state; machine parameters pre-extracted from {!Config.t} so
    the hot loop reads flat record fields *)
type mt = {
  bank : Counters.bank;
  l1 : Cache.t;
  l2 : Cache.t;
  bp : Predictor.t;
  mutable cycles : int;
  mutable bundle : int;       (** simple ops issued in the current cycle *)
  mutable bundle_id : int;    (** serial number of the current bundle *)
  mutable stamps : int array; (** register -> bundle id of its last write *)
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

(** drain the trailing partially-filled bundle and pin TOT_CYC *)
val finish : mt -> unit

(** {2 Trace-replay fold loops}

    {!Replay}'s hot loops, hosted in this compilation unit so the
    per-event model calls above are direct and inlinable without
    flambda.  [events.(0 .. n-1)] are {!Mtrace}-packed words; [lat] is
    the config's {!lat_table}.
    [sig_u0]/[sig_u1]/[sig_dst] are the trace's flattened signature
    columns; the caller must pre-size the mt's [stamps] past every
    register id they hold (see [Mtrace.max_reg]). *)

val replay_events :
  mt ->
  events:int array ->
  n:int ->
  sig_u0:int array ->
  sig_u1:int array ->
  sig_dst:int array ->
  lat:int array ->
  unit

(** one sequential {!replay_events} fold per config ([lats] is
    per-config) — keeps each config's model state hot for the whole
    pass, which measures faster than an interleaved fan-out *)
val replay_events_grid :
  mt array ->
  events:int array ->
  n:int ->
  sig_u0:int array ->
  sig_u1:int array ->
  sig_dst:int array ->
  lats:int array array ->
  unit

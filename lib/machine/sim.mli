(** Cycle-level machine simulator.

    Semantics come from the shared execution engine ({!Mira.Interp});
    this module attaches hooks that account time and hardware events:
    dependence-limited multiple issue for simple ALU ops, configured
    latencies for multiplies/divides/FP, an L1D/L2 hierarchy for memory
    accesses, a bimodal predictor for conditional branches, and fixed
    linkage overheads for calls.  Deterministic: same program and config
    always give the same cycle count. *)

(** the one result type of every engine: {!Flatsim} and {!Replay}
    produce it too *)
type result = Flatsim.result = {
  cycles : int;
  counters : Counters.bank;
  ret : Mira.Interp.value;
  output : string;
  steps : int;   (** dynamic instructions incl. terminators *)
}

val default_fuel : int

(** Which execution engine carries out the run.  All three are
    bit-identical (same results, traps, steps, cycles and counters —
    enforced by the three-way differential tests); [Flat] pre-decodes
    the program into flat bytecode ({!Mira.Decode}) and runs it with
    {!Flatsim}'s machine model, 4–7× [Ref]'s throughput in [bench micro]
    (7.3× on adpcm under the simulator); [Ref] is the original hooked
    interpreter, kept as the semantics oracle.
    [Trace] splits the run into {!Mtrace} generation (config-independent
    event trace) + {!Replay} (machine model folded over the trace) — the
    same result again, but repeated pricing of one program across
    machine configs amortizes the semantic execution. *)
type engine = Ref | Flat | Trace

(** engine used when {!run} is not given [?engine]; starts as [Flat] *)
val default_engine : engine ref

val engine_of_string : string -> engine option
val engine_name : engine -> string

(** Run a program on the simulated machine.
    @raise Mira.Interp.Trap on runtime errors
    @raise Mira.Interp.Out_of_fuel when the step budget is exhausted *)
val run :
  ?engine:engine -> ?config:Config.t -> ?fuel:int -> Mira.Ir.program -> result

(** run an already-decoded program on the flat engine (decode once,
    measure many) *)
val run_decoded : ?config:Config.t -> ?fuel:int -> Mira.Decode.t -> result

(** Price one program against an architecture grid: one semantic
    execution ({!Mtrace.generate}), then {!Replay.run_grid} over the
    configs.  [run_grid ~configs:[|c|] p] agrees bit-for-bit with
    [run ~config:c p] on any engine.
    @raise Mira.Interp.Trap on runtime errors
    @raise Mira.Interp.Out_of_fuel when the step budget is exhausted *)
val run_grid :
  ?fuel:int -> configs:Config.t array -> Mira.Ir.program -> result array

(** How a measured run ended.  [Trapped] and [Exhausted] are distinct on
    purpose: fuel exhaustion is deterministic, so search strategies can
    drop such a sequence instead of re-trying it, while a trap may be
    specific to the optimization under test. *)
type outcome = Cycles of int | Trapped of string | Exhausted

val cycles_of :
  ?engine:engine -> ?config:Config.t -> ?fuel:int -> Mira.Ir.program -> outcome

(** [speedup ~base ~opt] = base cycles / opt cycles *)
val speedup : base:result -> opt:result -> float

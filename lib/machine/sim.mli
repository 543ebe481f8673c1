(** Cycle-level machine simulator: the entry point of every engine.

    Two engines run a program on the simulated machine.  [Flat] decodes
    it once ({!Mira.Decode}) and runs the one dispatch loop with
    {!Flatsim}'s machine model; [Ref] is the reference interpreter
    ({!Mira.Interp}) with hooks, defined here, that account time and
    hardware events: dependence-limited multiple issue for simple ALU
    ops, configured latencies for multiplies/divides/FP, an L1D/L2
    hierarchy for memory accesses, a bimodal predictor for conditional
    branches, and fixed linkage overheads for calls.  {!run_grid} is the
    trace engine's one entry at this layer: it prices one program on
    several configs from a single {!Mtrace} generation.  Deterministic:
    same program and config always give the same cycle count. *)

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

(** Which engine carries out {!run}.  Both are bit-identical (same
    results, traps, steps, cycles and counters, enforced by the
    differential tests, which hold {!run_grid} to them too).  [Flat]
    pre-decodes the program into flat bytecode ({!Mira.Decode}) and runs
    it with {!Flatsim}'s machine model, 4–7× [Ref]'s throughput in
    [bench micro]; [Ref] is the hooked interpreter, kept as the
    semantics oracle. *)
type engine = Ref | Flat

(** Run a program on the simulated machine, on [engine] (default
    [Flat]).
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

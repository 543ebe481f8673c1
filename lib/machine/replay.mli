(** Model replay: the "model many" half of trace-once/model-many.

    Prices a recorded trace ({!Mtrace.t}) on a config without
    re-executing the program, reproducing {!Flatsim.run}'s cycles and
    full counter bank bit-identically.  A config's cycles are the
    executions of each recorded run of simple ops times its
    {!Flatsim.run_cycles}, plus each latency class's executions times
    its latency, plus an in-order cache fold over the memory words and
    an in-order predictor fold over the branch words
    ({!Flatsim.fold_stream}).  Exact because every run of simple ops
    starts from an empty bundle, a long op costs its class latency
    whatever ran before it, and only the caches and the predictor carry
    state from one event to the next.  The three-way differential tests
    hold this engine and the flat one together.

    A non-[Finished] trace re-raises the engine exception the flat
    simulator would have raised ({!Mira.Interp.Trap} /
    {!Mira.Interp.Out_of_fuel}), before any model work. *)

(** Replay one config over the trace.
    @raise Mira.Interp.Trap when the traced run trapped
    @raise Mira.Interp.Out_of_fuel when the traced run exhausted fuel *)
val run : config:Config.t -> Mtrace.t -> Flatsim.result

(** Replay a whole architecture grid against one trace: the semantic
    execution is paid once, each config then costs its count pricing
    and one fold over the recorded stream (sequential per config — the
    stream reads with perfect prefetch, while interleaving k model
    working sets measures slower).  [run_grid ~configs:[|c|] tr] is exactly
    [[| run ~config:c tr |]], and the results are independent of the
    order of [configs] (model states never interact).
    @raise Mira.Interp.Trap when the traced run trapped
    @raise Mira.Interp.Out_of_fuel when the traced run exhausted fuel *)
val run_grid : configs:Config.t array -> Mtrace.t -> Flatsim.result array

(** Model replay: the "model many" half of trace-once/model-many.

    Folds a recorded event stream ({!Mtrace.t}) through the
    config-dependent machine model — bundle issue, L1/L2 hierarchy,
    bimodal predictor, latencies — reproducing {!Flatsim.run}'s cycles
    and full counter bank bit-identically for any config, without
    re-executing the program.  The fold runs {!Flatsim}'s own cache,
    predictor and latency code over its {!Flatsim.mt} state, so those
    agree structurally; bundle issue is replayed per simple op, where
    the flat engine charges a per-run table, and the three-way
    differential tests hold the two together.

    A non-[Finished] trace re-raises the engine exception the flat
    simulator would have raised ({!Mira.Interp.Trap} /
    {!Mira.Interp.Out_of_fuel}), before any model work. *)

(** Replay one config over the trace.
    @raise Mira.Interp.Trap when the traced run trapped
    @raise Mira.Interp.Out_of_fuel when the traced run exhausted fuel *)
val run : config:Config.t -> Mtrace.t -> Flatsim.result

(** Replay a whole architecture grid against one trace: the semantic
    execution is paid once, each config then costs one model fold over
    the recorded stream (sequential per config — the trace streams with
    perfect prefetch, while interleaving k model working sets measures
    slower).  [run_grid ~configs:[|c|] tr] is exactly
    [[| run ~config:c tr |]], and the results are independent of the
    order of [configs] (model states never interact).
    @raise Mira.Interp.Trap when the traced run trapped
    @raise Mira.Interp.Out_of_fuel when the traced run exhausted fuel *)
val run_grid : configs:Config.t array -> Mtrace.t -> Flatsim.result array

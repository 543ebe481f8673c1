(** Architecture-grid pricing: {!Mach.Sim.run_grid} lifted into the
    engine layer, with the trace served through the {!Tcache} /
    {!Tstore} tiers and every config priced in the calling process by
    {!Mach.Replay.run_grid}, bit-identical to the serial path. *)

(** Price [p] against [configs].  The trace comes from [tcache] when
    given (consulting its durable {!Tstore} tier and writing fresh
    generations through), else from a direct {!Mach.Mtrace.generate}.
    @raise Mira.Interp.Trap on runtime errors
    @raise Mira.Interp.Out_of_fuel when the step budget is exhausted *)
val run_grid :
  ?fuel:int ->
  ?tcache:Tcache.t ->
  configs:Mach.Config.t array ->
  Mira.Ir.program ->
  Mach.Sim.result array

(** Replay an already-generated trace over [configs] in the calling
    process; re-raises a non-[Finished] trace's exception before any
    config is folded.  [jobs] is ignored: it once sized forked replay
    workers, and stays only until the end-to-end benchmark stops
    passing it. *)
val replay_grid :
  ?jobs:int ->
  configs:Mach.Config.t array ->
  Mach.Mtrace.t ->
  Mach.Sim.result array

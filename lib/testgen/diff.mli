(** Differential testing of the execution engines.

    All three simulator engines must be bit-identical: the flat engine
    ({!Mira.Decode} / [Mach.Flatsim]) and the trace engine
    ([Mach.Mtrace] generation + [Mach.Replay], entered through a
    one-config [Mach.Sim.run_grid]) are each held to the reference
    interpreter — same return value (to the bit, for floats), same
    printed output, same [steps], same trap message or fuel exhaustion,
    same cycle count and the same value in every counter of the bank,
    on every preset machine config.  This module runs a
    program through the engines and reports every field that disagrees,
    as human-readable one-line strings (tagged with the config and the
    disagreeing engine) suitable for test-failure messages and shrinker
    reports. *)

(** plain interpretation: [Interp.run] vs [Decode.run] (ret, output,
    steps, outcome kind incl. exact trap message) *)
val diff_plain : ?fuel:int -> Mira.Ir.program -> string list

(** Under the machine simulator, on one config: [Sim.run ~engine:Ref]
    as the oracle against [Flat] and against
    [Sim.run_grid ~configs:[|config|]] (ret, output, steps, cycles, the
    full counter bank, outcome kind incl. exact trap message), plus the
    persisted-trace leg: the trace is round-tripped through
    [Mtrace.encode]/[decode] (bit-exactness checked) and the decoded
    trace replayed against the same oracle, so the on-disk codec
    [Engine.Tstore] relies on sits inside the fuzzed surface *)
val diff_sim :
  ?config:Mach.Config.t -> ?fuel:int -> Mira.Ir.program -> string list

(** {!diff_sim} on every preset config ({!Mach.Config.all}) *)
val diff_sim_presets : ?fuel:int -> Mira.Ir.program -> string list

(** {!diff_plain} @ {!diff_sim_presets}: the full engine oracle (ref /
    flat / trace / persisted trace) the fuzzer and the shrinker run *)
val diff_all : ?fuel:int -> Mira.Ir.program -> string list

(** Shrinker oracle: does compiling [src] (and applying [transform],
    default identity — pass a pass-sequence application here) yield a
    program on which the engines disagree?  Sources that fail to
    compile return [false], as {!Shrink.minimize} requires. *)
val disagrees :
  ?transform:(Mira.Ir.program -> Mira.Ir.program) -> string -> bool

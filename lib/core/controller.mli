(** The intelligent optimization controller (paper Sec. III-A): given a
    program and the knowledge base, decide how to optimize it. *)

type decision = {
  sequence : Passes.Pass.t list;
  predicted_from : string list;  (** training programs consulted *)
  evaluations : int;             (** target-system runs spent *)
}

type compiled = {
  program : Mira.Ir.program;
  decision : decision;
}

(** one-shot from static features: nearest training program's best
    sequence; no target-system runs.  Falls back to O2 on an empty KB. *)
val one_shot :
  ?config:Mach.Config.t -> Knowledge.Kb.t -> Mira.Ir.program -> compiled

(** one-shot from performance counters (the paper's PCModel) on
    [engine]'s machine: spends one -O0 profiling run, the engine's
    evaluation of the empty sequence, so a program profiled before is a
    cache hit.  [trials > 1] additionally evaluates the top candidates
    through the engine and keeps the winner, which compiles through the
    engine's trie when sharing is on.  A prediction nobody evaluated
    ([trials = 1], or O2 when the KB has no counter model for the arch)
    compiles directly.
    @raise Mira.Interp.Trap when the -O0 profile traps
    @raise Mira.Interp.Out_of_fuel when the -O0 profile exhausts its fuel *)
val one_shot_counters :
  engine:Engine.t -> ?trials:int -> Knowledge.Kb.t -> Mira.Ir.program ->
  compiled

(** iterative mode on [engine]'s machine: fit a focused sequence model
    from the KB and spend an evaluation [budget] of engine evaluations
    searching; returns the compiled program and the full search trace.
    The best sequence compiles through the engine's trie when sharing is
    on, where the search already materialized every prefix of it. *)
val iterative :
  engine:Engine.t -> ?seed:int -> ?budget:int ->
  ?params:Search.Focused.params -> Knowledge.Kb.t -> Mira.Ir.program ->
  compiled * Search.Strategies.result

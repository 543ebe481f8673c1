(** Application characterization and knowledge-base population: the
    "static and dynamic process characterization" feeding the knowledge
    base in the paper's Fig. 1. *)

(** normalized (per-instruction) counter rates as a named list *)
val counter_assoc : Mach.Counters.bank -> (string * float) list

(** profile a program at -O0 on the given machine, directly (no engine):
    static features + counter rates + base cycles *)
val characterize :
  ?config:Mach.Config.t -> prog:string -> Mira.Ir.program ->
  Knowledge.Kb.characterization

(** compile with [seq] and simulate; [infinity] when the optimized program
    traps or diverges, so broken sequences lose every comparison.  The
    engine-free reference that the engine's costs are checked against;
    {!Engine.evaluator} is the cached cost oracle the controller and the
    tournament use. *)
val eval_sequence :
  ?config:Mach.Config.t -> Mira.Ir.program -> Passes.Pass.t list -> float

(** Build a knowledge base by random exploration of each training
    program's sequence space (the paper's "significant training period").
    [per_program] random sequences plus the O0/O2/Ofast points are
    evaluated per program, all through [engine] in one batch — parallel
    across its worker pool, cached across runs — on the engine's machine.
    A failed sequence is not recorded.
    @raise Mira.Interp.Trap when a program's -O0 run traps
    @raise Mira.Interp.Out_of_fuel when a program's -O0 run exhausts its
    fuel *)
val build_kb :
  engine:Engine.t -> ?seed:int -> ?per_program:int -> ?length:int ->
  (string * Mira.Ir.program) list -> Knowledge.Kb.t

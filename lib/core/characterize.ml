module Ir = Mira.Ir

(* Application characterization + knowledge-base population (Fig. 1's
   "static and dynamic process characterization" feeding the knowledge
   base):

   - static: the Features vector of the unoptimized program;
   - dynamic: the normalized performance-counter vector of a profiling run
     at -O0 on the target machine model;
   - experiments: measured cycles and code size for each optimization
     sequence tried, appended to the KB for the prediction models to learn
     from. *)

let counter_assoc (bank : Mach.Counters.bank) : (string * float) list =
  let norm = Mach.Counters.normalized bank in
  List.mapi (fun i c -> (Mach.Counters.name c, norm.(i))) Mach.Counters.all

(* profile at -O0: static features + normalized counters + base cycles *)
let characterize ?(config = Mach.Config.default) ~(prog : string)
    (p : Ir.program) : Knowledge.Kb.characterization =
  let r = Mach.Sim.run ~config p in
  {
    Knowledge.Kb.prog;
    arch = config.Mach.Config.name;
    o0_cycles = r.Mach.Sim.cycles;
    features = Features.extract p;
    counters = counter_assoc r.Mach.Sim.counters;
  }

(* evaluate one sequence: compile + simulate; infinity on trap/divergence
   so broken sequences lose every comparison *)
let eval_sequence ?(config = Mach.Config.default) (p : Ir.program)
    (seq : Passes.Pass.t list) : float =
  let p' = Passes.Pass.apply_sequence seq p in
  match Mach.Sim.run ~config p' with
  | r -> float_of_int r.Mach.Sim.cycles
  | exception (Mira.Interp.Trap _ | Mira.Interp.Out_of_fuel) -> infinity

(* Populate a knowledge base by random exploration of each training
   program's sequence space — the "significant training period" of
   Sec. III-C.  [per_program] sequences are tried per program; the O0 and
   fixed-pipeline points are always included so every program has a sane
   floor.

   Every (program, sequence) pair of the whole build goes into one engine
   batch: the worker pool simulates the misses in parallel and warm
   caches skip them entirely.  Experiments land in the KB in plan order,
   program by program. *)
let build_kb ~engine ?(seed = 42) ?(per_program = 40)
    ?(length = Search.Space.default_length)
    (programs : (string * Ir.program) list) : Knowledge.Kb.t =
  let kb = Knowledge.Kb.create () in
  let config = Engine.config engine in
  let arch = config.Mach.Config.name in
  let plan_for i (_, p) =
    let rng = Random.State.make [| seed + i |] in
    List.map
      (fun seq -> (p, seq))
      (([] : Passes.Pass.t list) :: Passes.Pass.o2 :: Passes.Pass.ofast
       :: Search.Space.sample_distinct rng ~length per_program)
  in
  let plans = List.mapi plan_for programs in
  let outcomes = Engine.eval_many engine (List.concat plans) in
  let cursor = ref 0 in
  List.iter2
    (fun (name, p) plan ->
      let first = !cursor in
      cursor := !cursor + List.length plan;
      (* the O0 point is the first task of this program's plan: its
         counter bank doubles as the dynamic characterization, so no
         separate profiling run is needed *)
      (match outcomes.(first) with
       | { Engine.cycles = Some o0_cycles; counters = Some bank; _ } ->
         Knowledge.Kb.add_characterization kb
           {
             Knowledge.Kb.prog = name;
             arch;
             o0_cycles;
             features = Features.extract p;
             counters = counter_assoc bank;
           }
       | _ ->
         (* O0 failed (a trap, fuel exhaustion or a crashed worker):
            profile directly, which raises the trap or the exhaustion *)
         Knowledge.Kb.add_characterization kb
           (characterize ~config ~prog:name p));
      List.iteri
        (fun j (_, seq) ->
          match outcomes.(first + j) with
          | { Engine.cycles = Some cycles; code_size = Some code_size; _ } ->
            Knowledge.Kb.add_experiment kb
              { Knowledge.Kb.eprog = name; earch = arch; seq; cycles; code_size }
          | _ -> (* a failed sequence is not recorded *) ())
        plan)
    programs plans;
  kb

module Ir = Mira.Ir

(* The intelligent optimization controller (paper Sec. III-A): given a
   program and the knowledge base, choose how to optimize it.

   - [one_shot]: predict a single sequence from prior knowledge (static
     features -> nearest training programs -> their best sequence), apply
     it, produce the executable.  No target-system runs needed.
   - [one_shot_counters]: like the paper's PCModel — spend one -O0
     profiling run, predict from the counter characterization.
   - [iterative]: fit a focused sequence model from the knowledge base and
     spend an evaluation budget searching; converges to the best sequence
     found.  This is the "iterate until the selection converges" mode.

   The two modes that measure do so through an engine, on its machine,
   and reuse what it holds: the -O0 profile is the engine's evaluation of
   the empty sequence (a cache hit when the program was profiled before),
   and a chosen sequence the engine evaluated compiles through its trie,
   where every prefix is already materialized.  A sequence the engine
   never evaluated compiles directly, so no engine keeps IRs alive for
   it. *)

module Kb = Knowledge.Kb

type decision = {
  sequence : Passes.Pass.t list;
  predicted_from : string list;     (* training programs consulted *)
  evaluations : int;                (* target-system runs spent *)
}

type compiled = {
  program : Ir.program;
  decision : decision;
}

(* the -O0 counter bank of the profiling run; a failed outcome (a trap
   or fuel exhaustion, cached by the engine as a failure) is run again
   directly, so it raises the simulator's [Trap] or [Out_of_fuel] *)
let profile engine p =
  match (Engine.eval engine p []).Engine.counters with
  | Some bank -> bank
  | None -> (Mach.Sim.run ~config:(Engine.config engine) p).Mach.Sim.counters

(* compile a sequence the engine evaluated, whose every prefix its trie
   already holds; without sharing there is no trie *)
let compile_evaluated engine seq p =
  match Engine.trie engine with
  | Some trie ->
    fst
      (Engine.Pctrie.apply_sequence trie p ~digest:(Engine.ir_digest p) seq)
  | None -> Passes.Pass.apply_sequence seq p

(* --- one-shot from static features ------------------------------- *)

let one_shot ?(config = Mach.Config.default) (kb : Kb.t) (p : Ir.program) :
    compiled =
  let arch = config.Mach.Config.name in
  let feats = Features.restrict_to_similarity (Features.extract p) in
  let neighbors =
    Search.Focused.nearest_programs kb ~arch ~target_features:feats ~n:1
  in
  let sequence =
    match neighbors with
    | prog :: _ -> (
      match Kb.best kb ~prog ~arch with
      | Some e -> e.Kb.seq
      | None -> Passes.Pass.o2)
    | [] -> Passes.Pass.o2
  in
  {
    program = Passes.Pass.apply_sequence sequence p;
    decision = { sequence; predicted_from = neighbors; evaluations = 0 };
  }

(* --- one-shot from performance counters (PCModel) ----------------- *)

let one_shot_counters ~engine ?(trials = 1) (kb : Kb.t) (p : Ir.program) :
    compiled =
  let arch = (Engine.config engine).Mach.Config.name in
  match Pcmodel.train kb ~arch with
  | None ->
    {
      program = Passes.Pass.apply_sequence Passes.Pass.o2 p;
      decision =
        { sequence = Passes.Pass.o2; predicted_from = []; evaluations = 0 };
    }
  | Some model ->
    let counters = Characterize.counter_assoc (profile engine p) in
    let sequence, evals =
      if trials <= 1 then (Pcmodel.predict model counters, 0)
      else begin
        let seq, _ =
          Pcmodel.predict_and_pick model ~trials counters
            (Engine.evaluator engine p)
        in
        (seq, trials)
      end
    in
    let predicted_from =
      Pcmodel.neighbors model counters
      |> List.filteri (fun i _ -> i < 3)
      |> List.map (fun (prog, _, _) -> prog)
    in
    {
      program =
        (if evals > 0 then compile_evaluated engine sequence p
         else Passes.Pass.apply_sequence sequence p);
      decision = { sequence; predicted_from; evaluations = 1 + evals };
    }

(* --- iterative (model-focused search) ----------------------------- *)

let iterative ~engine ?(seed = 1) ?(budget = 20)
    ?(params = Search.Focused.default_params) (kb : Kb.t) (p : Ir.program) :
    compiled * Search.Strategies.result =
  let arch = (Engine.config engine).Mach.Config.name in
  let feats = Features.restrict_to_similarity (Features.extract p) in
  let model =
    Search.Focused.fit_model kb ~arch ~params ~target_features:feats
  in
  let result =
    Search.Focused.search ~seed ~budget model (Engine.evaluator engine p)
  in
  let neighbors =
    Search.Focused.nearest_programs kb ~arch ~target_features:feats
      ~n:params.Search.Focused.neighbors
  in
  ( {
      program =
        compile_evaluated engine result.Search.Strategies.best_seq p;
      decision =
        {
          sequence = result.Search.Strategies.best_seq;
          predicted_from = neighbors;
          evaluations = budget;
        };
    },
    result )

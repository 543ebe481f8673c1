(* Architecture-grid pricing: Sim.run_grid's pricing loop lifted into
   the engine layer, where the trace tiers live (lib/machine cannot
   depend on lib/engine).

   One trace fetch — through Tcache (and its Tstore tier) when one is
   attached, a plain generation otherwise — then Replay.run_grid in the
   calling process: one sequential model fold per config.  Every grid
   here has at most the three preset configs, and at that size forking
   workers from a large process costs more than the folds they would
   share (DESIGN.md, "Grid replay").  A non-Finished trace re-raises
   its engine exception (Trap / Out_of_fuel) before any config is
   folded, exactly like Sim.run_grid. *)

module Mtrace = Mach.Mtrace
module Sim = Mach.Sim

let runs = Obs.Metrics.counter "grid.runs"

(* Replay.run_grid's results all point at the trace's one output
   string.  Each result gets its own copy, as results marshaled back
   from worker processes had, so that marshaling a grid of results (as
   perfbench's results digest does) gives the same bytes however the
   grid was priced. *)
let own_output (r : Sim.result) =
  { r with Sim.output = String.sub r.Sim.output 0 (String.length r.Sim.output) }

let replay_grid ?jobs:_ ~(configs : Mach.Config.t array) (tr : Mtrace.t) :
    Sim.result array =
  Array.map own_output (Mach.Replay.run_grid ~configs tr)

let run_grid ?(fuel = Sim.default_fuel) ?tcache
    ~(configs : Mach.Config.t array) (p : Mira.Ir.program) :
    Sim.result array =
  Obs.Metrics.incr runs;
  Obs.span_with ~cat:"grid" "grid.run"
    ~end_args:(fun _ -> [ ("configs", Obs.Trace.Int (Array.length configs)) ])
    (fun () ->
      let tr =
        match tcache with
        | None -> Mtrace.generate_program ~fuel p
        | Some tc ->
          Tcache.find_or_generate tc ~ir_digest:(Pctrie.digest p) ~fuel
            (fun () -> Mtrace.generate_program ~fuel p)
      in
      replay_grid ~configs tr)

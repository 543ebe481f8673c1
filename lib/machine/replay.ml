module Interp = Mira.Interp

(* Model-many half of the trace-once/model-many split: price a trace
   that Mtrace recorded (Decode.Exec, the loop Flatsim prices live, over
   a counting model) on one config.  A config's cycles are

     Σ executions × plan cost, over the trace's executed runs of simple
       ops (Flatsim.run_cycles, the flat engine's own plan);
   + Σ executions × class latency, over long ops and jumps;
   + an in-order cache fold over the memory words;
   + an in-order predictor fold over the branch words.

   It is exact because every run of simple ops starts from an empty
   bundle, a long op costs its class latency whatever ran before it, and
   only the caches and the predictor carry state from one event to the
   next; neither reads the other, so one fold over the interleaved
   stream serves both.  The fold runs in Flatsim's unit, over Flatsim's
   own mt state, cache and predictor code.  The config-independent
   counters sit pre-derived in the trace's base bank and are merged at
   the end.  That is what makes pricing a grid of configs against one
   trace cheap: the semantics ran once, at generation time. *)

(* the cycles that depend on counts alone *)
let counted_cycles (tr : Mtrace.t) (mt : Flatsim.mt) =
  let width = mt.Flatsim.issue_width in
  let uses = tr.Mtrace.sig_uses and dst = tr.Mtrace.sig_dst in
  let cycles = ref 0 in
  Array.iteri
    (fun i first ->
      cycles :=
        !cycles
        + tr.Mtrace.run_count.(i)
          * Flatsim.run_cycles ~width ~uses ~dst first tr.Mtrace.run_len.(i))
    tr.Mtrace.run_first;
  let lat = Flatsim.lat_table mt in
  Array.iteri
    (fun cls k -> cycles := !cycles + (k * lat.(cls)))
    tr.Mtrace.long_count;
  !cycles

(* the trace's base bank holds exactly the counters the folds never
   touch, so a plain elementwise add composes the full bank *)
let merge_base (base : Counters.bank) (bank : Counters.bank) : unit =
  Array.iteri (fun i k -> bank.(i) <- bank.(i) + k) base

let reraise_outcome (tr : Mtrace.t) =
  match tr.Mtrace.outcome with
  | Mtrace.Trapped m -> raise (Interp.Trap m)
  | Mtrace.Exhausted -> raise Interp.Out_of_fuel
  | Mtrace.Finished -> ()

let price (tr : Mtrace.t) (config : Config.t) : Flatsim.result =
  let mt = Flatsim.mk_mt config in
  mt.Flatsim.cycles <- counted_cycles tr mt;
  Flatsim.fold_stream mt tr.Mtrace.events;
  Flatsim.finish mt;
  merge_base tr.Mtrace.base mt.Flatsim.bank;
  {
    Flatsim.cycles = mt.Flatsim.cycles;
    counters = mt.Flatsim.bank;
    ret = tr.Mtrace.ret;
    output = tr.Mtrace.output;
    steps = tr.Mtrace.steps;
  }

(* ------------------------------------------------------------------ *)

let config_ms = Obs.Metrics.histogram "replay.config_ms"
let grid_ms = Obs.Metrics.histogram "replay.grid_ms"
let runs = Obs.Metrics.counter "replay.runs"

let run ~(config : Config.t) (tr : Mtrace.t) : Flatsim.result =
  reraise_outcome tr;
  Obs.Metrics.incr runs;
  Obs.span_with ~cat:"trace" ~hist:config_ms "replay.run"
    ~end_args:(fun (r : Flatsim.result) ->
      [
        ("config", Obs.Trace.Str config.Config.name);
        ("events", Obs.Trace.Int tr.Mtrace.n);
        ("cycles", Obs.Trace.Int r.Flatsim.cycles);
      ])
    (fun () -> price tr config)

(* Price every config on the grid against the one trace, one sequential
   fold per config.  An interleaved fan-out (decode each word once,
   touch every config's state) would read the stream only once, but it
   drags k cache and predictor working sets through the host caches per
   word, while the stream itself reads with perfect prefetch either way;
   keeping one config's model state hot per pass measured faster. *)
let run_grid ~(configs : Config.t array) (tr : Mtrace.t) :
    Flatsim.result array =
  reraise_outcome tr;
  Obs.Metrics.incr runs ~by:(Array.length configs);
  Obs.span_with ~cat:"trace" ~hist:grid_ms "replay.run_grid"
    ~end_args:(fun (_ : Flatsim.result array) ->
      [
        ("configs", Obs.Trace.Int (Array.length configs));
        ("events", Obs.Trace.Int tr.Mtrace.n);
      ])
    (fun () -> Array.map (price tr) configs)

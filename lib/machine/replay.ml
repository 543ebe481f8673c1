module Interp = Mira.Interp

(* Model-many half of the trace-once/model-many split: fold an event
   stream that Mtrace recorded (Decode.Exec, the loop Flatsim prices
   live, over a recording model) through the config-dependent machine
   model.  The fold runs in Flatsim's unit, over Flatsim's own mt
   state, cache, predictor and latency code, so those agree with the
   flat engine structurally.  Bundle issue is Sim's per-op rule here
   (Flatsim.issue_simple_pre) and a per-run table in the flat engine;
   the three-way differential tests hold the two together.

   Per event the replay does one array read, a 2-bit tag dispatch and
   the model call; no operand evaluation, no register files, no fuel or
   steps bookkeeping, and no config-independent counter bumps (those sit
   pre-accumulated in the trace's base bank and are merged at the end).
   That is what makes pricing a grid of configs against one trace cheap:
   the semantics ran once, at generation time. *)

(* establish the replay-fold precondition: stamps cover every register
   id the trace's signatures can present, plus the sentinel slot at
   [max_reg + 1] absent uses point at (Flatsim.issue_simple_pre) *)
let presize_stamps (tr : Mtrace.t) (mt : Flatsim.mt) =
  if tr.Mtrace.max_reg + 1 >= Array.length mt.Flatsim.stamps then
    mt.Flatsim.stamps <- Array.make (tr.Mtrace.max_reg + 2) 0

(* replay the event stream into one model state; the fold loop itself is
   hosted in Flatsim's compilation unit so the model calls inline *)
let fold_events (tr : Mtrace.t) (mt : Flatsim.mt) (lat : int array) : unit =
  Flatsim.replay_events mt ~events:tr.Mtrace.events ~n:tr.Mtrace.n
    ~sig_u0:tr.Mtrace.sig_u0 ~sig_u1:tr.Mtrace.sig_u1
    ~sig_dst:tr.Mtrace.sig_dst ~lat

(* the trace's base bank holds exactly the counters the replay never
   touches, so a plain elementwise add composes the full bank *)
let merge_base (base : Counters.bank) (bank : Counters.bank) : unit =
  for i = 0 to Array.length bank - 1 do
    Array.unsafe_set bank i (Array.unsafe_get bank i + Array.unsafe_get base i)
  done

let reraise_outcome (tr : Mtrace.t) =
  match tr.Mtrace.outcome with
  | Mtrace.Trapped m -> raise (Interp.Trap m)
  | Mtrace.Exhausted -> raise Interp.Out_of_fuel
  | Mtrace.Finished -> ()

let finish_result (tr : Mtrace.t) (mt : Flatsim.mt) : Flatsim.result =
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
    (fun () ->
      let mt = Flatsim.mk_mt config in
      presize_stamps tr mt;
      fold_events tr mt (Flatsim.lat_table mt);
      finish_result tr mt)

(* Price every config on the grid against the one trace: the semantics
   ran once, at generation time, and each config costs one sequential
   model fold over the event stream (see Flatsim.replay_events_grid for
   why sequential-per-config beats an interleaved fan-out). *)
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
    (fun () ->
      let mts = Array.map Flatsim.mk_mt configs in
      Array.iter (presize_stamps tr) mts;
      let lats = Array.map Flatsim.lat_table mts in
      Flatsim.replay_events_grid mts ~events:tr.Mtrace.events ~n:tr.Mtrace.n
        ~sig_u0:tr.Mtrace.sig_u0 ~sig_u1:tr.Mtrace.sig_u1
        ~sig_dst:tr.Mtrace.sig_dst ~lats;
      Array.map (finish_result tr) mts)

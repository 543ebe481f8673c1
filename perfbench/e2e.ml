(* The end-to-end benchmark's main program: one workload per process.

     e2e --workload tune|sweep|grid [--seed N] [--seconds S] [--trace 0|1]

   The timed region (cold and warm phases) repeats about seconds /
   rep_seconds times, and at least min_reps times, each after a fresh
   set-up.  Each phase is timed in slots (operations or batches); a
   throughput divides the phase's operations by the sum of each slot's
   fastest time over the repetitions.  Set-up time is the median of the
   set-ups.
   With --trace 1 it runs once untraced, the baseline of the tracing
   overhead, and once under the Obs tracer, whose spans are folded into
   per-layer metrics.  Output oracles run after the first repetition.
   The last stdout line is the result object; the line before it is the
   full run record. *)

open Common

module type WORKLOAD = sig
  type setup

  val setup_reps : int  (* set-ups timed before each repetition *)
  val setup_after : bool  (* cheap: one more block after the last *)
  val rep_seconds : float  (* one repetition's length on a 2-core host *)
  val min_reps : int  (* repetitions at the least: two, or more where cheap *)
  val setup : ctx -> setup
  val region : ctx -> setup -> run
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("tune", (module Tune)); ("sweep", (module Sweep)); ("grid", (module Grid)) ]

let end_to_end =
  [ ("setup_s", "s", "lower"); ("ops_per_s", "op/s", "higher");
    ("warm_ops_per_s", "op/s", "higher"); ("peak_rss_mb", "MB", "lower") ]

let per_layer =
  [ ("frontend.calls", "count", "lower"); ("frontend.self_ms", "ms", "lower");
    ("features.self_ms", "ms", "lower");
    ("knowledge.records", "count", "lower"); ("knowledge.io_ms", "ms", "lower");
    ("knowledge.self_ms", "ms", "lower");
    ("controller.oneshot_self_ms", "ms", "lower");
    ("controller.pcmodel_self_ms", "ms", "lower");
    ("controller.iterative_self_ms", "ms", "lower");
    ("controller.fit_model_ms", "ms", "lower");
    ("controller.pcmodel_train_ms", "ms", "lower");
    ("search.evals", "count", "lower"); ("search.self_ms", "ms", "lower");
    ("engine.evals", "count", "lower"); ("engine.hits", "count", "higher");
    ("engine.sims", "count", "lower"); ("engine.dedup_hits", "count", "higher");
    ("engine.sims_per_miss", "ratio", "lower");
    ("engine.trapped", "count", "lower"); ("engine.self_ms", "ms", "lower");
    ("pctrie.hits", "count", "higher"); ("pctrie.misses", "count", "lower");
    ("pctrie.evictions", "count", "lower");
    ("pctrie.hit_ratio", "ratio", "higher");
    ("passes.applied", "count", "lower"); ("passes.self_ms", "ms", "lower");
    ("decode.calls", "count", "lower"); ("decode.self_ms", "ms", "lower");
    ("flatsim.runs", "count", "lower"); ("flatsim.steps", "count", "lower");
    ("flatsim.self_ms", "ms", "lower");
    ("flatsim.msteps_per_s", "Msteps/s", "higher");
    ("pool.batches", "count", "lower"); ("pool.tasks", "count", "lower");
    ("pool.busy_ms", "ms", "lower"); ("pool.wait_ms", "ms", "lower");
    ("pool.self_ms", "ms", "lower"); ("pool.utilization", "ratio", "higher");
    ("pool.respawns", "count", "lower"); ("pool.crashes", "count", "lower");
    ("pool.timeouts", "count", "lower");
    ("pool.serial_fallbacks", "count", "lower");
    ("rcache.open_ms", "ms", "lower"); ("rcache.entries", "count", "lower");
    ("rcache.log_bytes", "bytes", "lower");
    ("rcache.quarantined", "count", "lower"); ("rcache.self_ms", "ms", "lower");
    ("mtrace.generations", "count", "lower"); ("mtrace.words", "words", "lower");
    ("mtrace.self_ms", "ms", "lower");
    ("tstore.open_ms", "ms", "lower"); ("tstore.write_ms", "ms", "lower");
    ("tstore.read_ms", "ms", "lower"); ("tstore.hits", "count", "higher");
    ("tstore.misses", "count", "lower"); ("tstore.log_bytes", "bytes", "lower");
    ("tstore.bytes_per_word", "B/word", "lower");
    ("tstore.quarantined", "count", "lower"); ("tstore.self_ms", "ms", "lower");
    ("tcache.hits", "count", "higher"); ("tcache.misses", "count", "lower");
    ("tcache.evictions", "count", "lower");
    ("tcache.resident_words", "words", "lower");
    ("replay.runs", "count", "lower"); ("replay.self_ms", "ms", "lower");
    ("grid.self_ms", "ms", "lower"); ("trace.wall_ms", "ms", "lower");
    ("unattributed_ms", "ms", "lower"); ("unattributed_pct", "%", "lower");
    ("trace.overhead_pct", "%", "lower");
    ("trace.dropped_events", "count", "lower") ]

let pool_counters =
  [ ("pool.respawns", "pool.respawns"); ("pool.crashes", "pool.crashed_workers");
    ("pool.timeouts", "pool.timeouts");
    ("pool.serial_fallbacks", "pool.serial_fallbacks") ]

(* per-layer values from the fold of the traced region, before the
   workload's own counts (which take precedence) *)
let traced_values (f : Fold.t) events ~pool_deltas ~untraced_ms ~dropped =
  let calls n = float_of_int (Fold.span f n).Fold.calls in
  let layer = Fold.layer_ms f in
  let arg span arg = Fold.arg_sum events ~span ~arg in
  let steps = arg "flatsim.run" "steps" in
  let flat_cpu_ms = (Fold.span f "flatsim.run").Fold.self_ms in
  let pass_calls =
    List.fold_left
      (fun a (n, (s : Fold.span_stat)) ->
        if String.starts_with ~prefix:"pass." n then a +. float_of_int s.calls
        else a)
      0.0 f.Fold.spans
  in
  let pct a b = if b > 0.0 then 100.0 *. a /. b else 0.0 in
  [ ("frontend.calls", calls "frontend.parse");
    ("frontend.self_ms", layer "frontend");
    ("features.self_ms", layer "features");
    ("knowledge.self_ms", layer "knowledge");
    ("search.evals", calls "search.eval"); ("search.self_ms", layer "search");
    ("engine.self_ms", layer "engine"); ("passes.applied", pass_calls);
    ("passes.self_ms", layer "passes");
    ("decode.calls", calls "decode.translate");
    ("decode.self_ms", layer "decode"); ("flatsim.runs", calls "flatsim.run");
    ("flatsim.steps", steps); ("flatsim.self_ms", layer "flatsim");
    ("flatsim.msteps_per_s",
     if flat_cpu_ms > 0.0 then steps /. flat_cpu_ms /. 1e3 else 0.0);
    ("pool.batches", float_of_int f.Fold.pool_batches);
    ("pool.tasks", float_of_int f.Fold.pool_tasks);
    ("pool.busy_ms", f.Fold.pool_busy_ms); ("pool.wait_ms", f.Fold.pool_wait_ms);
    ("pool.self_ms", layer "pool"); ("pool.utilization", Fold.utilization f);
    ("rcache.self_ms", layer "rcache");
    ("mtrace.generations", calls "mtrace.generate");
    ("mtrace.words", arg "mtrace.generate" "events");
    ("mtrace.self_ms", layer "mtrace"); ("tstore.self_ms", layer "tstore");
    ("replay.runs", calls "replay.run" +. arg "replay.run_grid" "configs");
    ("replay.self_ms", layer "replay"); ("grid.self_ms", layer "grid");
    ("trace.wall_ms", f.Fold.wall_ms);
    ("unattributed_ms", f.Fold.unattributed_ms);
    ("unattributed_pct", pct f.Fold.unattributed_ms f.Fold.wall_ms);
    ("trace.overhead_pct", pct (f.Fold.wall_ms -. untraced_ms) untraced_ms);
    ("trace.dropped_events", float_of_int dropped) ]
  @ pool_deltas

let ratio a b = if b > 0.0 then a /. b else 0.0

(* values derived from the workload's counts *)
let derived vs =
  let v k = Option.value (List.assoc_opt k vs) ~default:0.0 in
  [ ("engine.sims_per_miss",
     ratio (v "engine.sims") (v "engine.evals" -. v "engine.hits"));
    ("pctrie.hit_ratio",
     ratio (v "pctrie.hits") (v "pctrie.hits" +. v "pctrie.misses")) ]

let metric_obj names values =
  Obj
    (List.map
       (fun (name, unit_, _) ->
         ( name,
           Obj
             [ ("value",
                Num (Option.value (List.assoc_opt name values) ~default:0.0));
               ("unit", Str unit_) ] ))
       names)

(* a repetition's values, the wall time of its whole region, the
   process's memory peak after it, and its oracle mismatches (checked on
   the first repetition only) *)
type summary = {
  stats : stats;
  wall : float;
  cpu : float;  (* CPU seconds of the process and its workers *)
  steal : float;  (* seconds the host's CPUs were stolen meanwhile *)
  peak : float;
  mismatches : int;
}

let measure ctx (module W : WORKLOAD) ~workload ~trace ~rev ~dirty =
  let nproc = Domain.recommended_domain_count () in
  let n =
    if trace = 1 then 1
    else
      max W.min_reps
        (int_of_float (Float.round (float_of_int ctx.seconds /. W.rep_seconds)))
  in
  (* before every repetition, set up [W.setup_reps] times, keeping only
     the last set-up alive so the discarded ones do not swell the memory
     peak; a cheap set-up does so once more after the last repetition.
     So set-up time is sampled across the run, and the repetitions are
     spread over it too: the fastest repetition of a slot is more likely
     to have escaped a slow spell of the host.  The record keeps each
     block's median *)
  let blocks = ref [] in
  let setups () =
    let times = ref [] in
    let one () =
      let s, t = timed (fun () -> W.setup ctx) in
      times := t :: !times;
      s
    in
    for _ = 2 to W.setup_reps do
      ignore (one ())
    done;
    let s = one () in
    blocks := !times :: !blocks;
    s
  in
  let last = ref None in
  let reps =
    List.init n (fun i ->
        let s = setups () in
        last := Some s;
        let cpu0 = cpu_s () and steal0 = steal_s () in
        let x, wall = timed (fun () -> W.region ctx s) in
        let peak = peak_rss_mb () in
        { stats = x.stats; wall; cpu = cpu_s () -. cpu0;
          steal = steal_s () -. steal0; peak;
          mismatches = (if i = 0 then x.check () else 0) })
  in
  if W.setup_after then ignore (setups ());
  let blocks = List.rev !blocks in
  let setup_samples = List.concat blocks in
  let setup_s = median setup_samples in
  let r = (List.hd reps).stats in
  (* the tracing overhead's baseline: the same whole region, untraced *)
  let untraced_ms = median (List.map (fun x -> x.wall) reps) *. 1e3 in
  let traced =
    if trace = 0 then None
    else begin
      let before = List.map (fun (_, c) -> counter c) pool_counters in
      Obs.Trace.set_pid (Unix.getpid ());
      (* a traced region emits under 10k events; a larger ring would only
         add to the major GC's marking work, and so to the overhead *)
      Obs.Trace.enable_memory ~capacity:(1 lsl 17) ();
      let rt =
        Obs.Trace.with_span ~cat:"bench" "bench.region" (fun () ->
            W.region ctx (Option.get !last))
      in
      let events = Obs.Trace.events () in
      let dropped = Obs.Trace.dropped_events () in
      Obs.Trace.disable ();
      let pool_deltas =
        List.map2
          (fun (m, c) b -> (m, float_of_int (counter c - b)))
          pool_counters before
      in
      let f = Fold.fold ~root:"bench.region" events in
      let own = rt.layer_counts f in
      let values =
        own @ derived own
        @ traced_values f events ~pool_deltas ~untraced_ms ~dropped
      in
      Some (rt.stats, f, values)
    end
  in
  let all =
    List.map (fun x -> x.stats) reps
    @ match traced with Some (t, _, _) -> [ t ] | None -> []
  in
  (* oracles ran on the first repetition; every other repetition must
     reproduce its deterministic values *)
  let mismatches =
    (List.hd reps).mismatches
    + List.length (List.filter (fun (x : stats) -> x.det <> r.det) all)
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 all in
  let lost = sum (fun x -> x.lost) in
  let failed = mismatches + lost in
  let attempted = sum (fun x -> x.attempted) in
  let per_rep f = List.map (fun x -> f x.stats) reps in
  let peak = List.fold_left (fun a x -> Float.max a x.peak) 0.0 reps in
  let passes f = List.concat (per_rep f) in
  let cold_s = slot_min_sum (passes (fun x -> x.cold)) in
  let warm_s = slot_min_sum (passes (fun x -> x.warm)) in
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", float_of_int r.cold_ops /. cold_s);
      ("warm_ops_per_s", float_of_int r.warm_ops /. warm_s);
      ("peak_rss_mb", peak) ]
  in
  let pass_sums f = Arr (List.map (fun p -> Num (sum_array p)) (passes f)) in
  let extra =
    List.map
      (fun (k, v) ->
        match v with
        | Num _ ->
          ( k,
            Num
              (median
                 (per_rep (fun x ->
                      match List.assoc_opt k x.extra with
                      | Some (Num f) -> f
                      | _ -> nan))) )
        | v -> (k, v))
      r.extra
  in
  let profile =
    match traced with
    | None -> []
    | Some (_, f, values) ->
      let sum =
        List.fold_left
          (fun a (_, v) -> a +. v)
          f.Fold.unattributed_ms f.Fold.layers
      in
      [ ( "profile",
          Obj
            [ ("wall_ms", Num f.Fold.wall_ms);
              ("untraced_wall_ms", Num untraced_ms);
              ("layers_plus_unattributed_ms", Num sum);
              ("unattributed_ms", Num f.Fold.unattributed_ms);
              ("layers", Obj (List.map (fun (l, v) -> (l, Num v)) f.Fold.layers));
              ("unbalanced_ends", Int f.Fold.unbalanced_ends);
              ("unclosed", Int f.Fold.unclosed);
              ( "spans",
                Obj
                  (List.map
                     (fun (n, (st : Fold.span_stat)) ->
                       ( n,
                         Obj
                           [ ("calls", Int st.calls);
                             ("total_ms", Num st.total_ms);
                             ("self_ms", Num st.self_ms) ] ))
                     f.Fold.spans) ) ] );
        ("per_layer", metric_obj per_layer values) ]
  in
  let record =
    Obj
      ([ ("schema", Str "icc-e2e/1"); ("workload", Str workload);
         ("seed", Int ctx.seed); ("search_seed", Int ctx.search_seed);
         ("kb_seed", Int ctx.kb_seed);
         ("sweep_seed", Int ctx.sweep_seed); ("seconds", Int ctx.seconds);
         ("trace", Int trace); ("nproc", Int nproc); ("workers", Int ctx.workers);
         ("ocaml", Str Sys.ocaml_version); ("rev", Str rev);
         ("dirty", Bool dirty);
         ("arch", Str config.Mach.Config.name);
         ("setup_samples", Int (List.length setup_samples));
         ("setup_block_medians_s",
          Arr (List.map (fun b -> Num (median b)) blocks));
         ("reps", Int n); ("cold_ops", Int r.cold_ops);
         ("cold_slots", Int (Array.length (List.hd r.cold)));
         ("cold_s", pass_sums (fun x -> x.cold));
         ("cold_slot_min_sum_s", Num cold_s);
         ("warm_ops", Int r.warm_ops);
         ("warm_s", pass_sums (fun x -> x.warm));
         ("warm_slot_min_sum_s", Num warm_s);
         ("region_s", Arr (List.map (fun x -> Num x.wall) reps));
         ("region_cpu_s", Arr (List.map (fun x -> Num x.cpu) reps));
         ("region_steal_s", Arr (List.map (fun x -> Num x.steal) reps));
         ("end_to_end", metric_obj end_to_end e2e);
         ("failed_frac", Num (float_of_int failed /. float_of_int attempted));
         ("mismatches", Int mismatches); ("lost", Int lost);
         ("extra", Obj extra); ("deterministic", Obj r.det) ]
      @ profile)
  in
  Printf.printf
    "%s: setup %.3fs (median of %d); %d repetition(s), cold %d ops in %.3fs, \
     warm %d ops in %.3fs (fastest per slot); peak RSS %.1f MB; failed %d/%d\n"
    workload setup_s (List.length setup_samples) n r.cold_ops cold_s
    r.warm_ops warm_s peak failed attempted;
  print_endline (to_string (Obj [ ("record", record) ]));
  let metrics =
    match traced with
    | None -> metric_obj end_to_end e2e
    | Some (_, _, values) -> metric_obj per_layer values
  in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool (failed = 0)); ("attempted", Int attempted);
            ("failed", Int failed); ("metrics", metrics) ]));
  failed

let main () =
  Obs.Clock.set Unix.gettimeofday;
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref 0 and kb_seed = ref 42 and sweep_seed = ref 20080101 in
  let search_seed = ref 1 in
  let rev = ref "unknown" and dirty = ref false and work = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "tune|sweep|grid");
      ("--seed", Arg.Set_int seed,
       "N run seed: the order operations are sent in (1)");
      ("--seconds", Arg.Set_int seconds,
       "S measured seconds, as repetitions of the timed region (20)");
      ("--trace", Arg.Set_int trace, "0|1 add the traced per-layer run");
      ("--kb-seed", Arg.Set_int kb_seed, "N knowledge-base seed (42)");
      ("--search-seed", Arg.Set_int search_seed,
       "N focused-search seed, tune only (1)");
      ("--sweep-seed", Arg.Set_int sweep_seed,
       "N sweep sampling seed (20080101)");
      ("--rev", Arg.Set_string rev, "REV source revision for the record");
      ("--dirty", Arg.Set dirty, " the source tree has local changes");
      ("--work", Arg.Set_string work, "DIR scratch directory") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e --workload tune|sweep|grid [options]";
  let (module W : WORKLOAD) =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("e2e: unknown workload " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "e2e: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let nproc = Domain.recommended_domain_count () in
  let work =
    if !work <> "" then !work
    else Printf.sprintf ".bench_work/%s-%d" !workload (Unix.getpid ())
  in
  let ctx =
    { seconds = !seconds; workers = min nproc 2; kb_seed = !kb_seed;
      sweep_seed = !sweep_seed; seed = !seed; search_seed = !search_seed;
      work }
  in
  remove_tree work;
  mkdir_p work;
  let failed =
    Fun.protect ~finally:(fun () -> remove_tree work) (fun () ->
        measure ctx (module W) ~workload:!workload ~trace:!trace ~rev:!rev
          ~dirty:!dirty)
  in
  if failed > 0 then exit 1

let () = main ()

(* miracc — the intelligent-compiler command-line driver.

   Subcommands:
     compile    parse/typecheck/optimize a Mira file, print the IR
     run        compile and execute on the machine simulator
     features   print the static feature vector
     counters   print the -O0 performance-counter characterization
     train      build a knowledge base from the built-in workload suite
     predict    one-shot optimization prediction from a knowledge base
     search     iterative search for a good sequence (random/hill/genetic/focused)
     sweep-serve  coordinate a distributed sweep (serve shards to workers)
     sweep-work   join a distributed sweep as a worker
     sweep-status report a distributed run directory (manifest, journals)
     workloads  list the built-in benchmark suite
     dynamic    demo the dynamic optimizer on a phased workload *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program path =
  match Mira.Lower.compile_source (read_file path) with
  | Ok p -> p
  | Error e ->
    Fmt.epr "%s: %s@." path e;
    exit 1

let arch_of_name name =
  match Mach.Config.by_name name with
  | Some c -> c
  | None ->
    Fmt.epr "unknown architecture %S (available: %s)@." name
      (String.concat ", " (List.map (fun c -> c.Mach.Config.name) Mach.Config.all));
    exit 1

let parse_seq ~level ~seq =
  match (level, seq) with
  | Some l, _ -> (
    match Passes.Pass.level_of_string l with
    | Some s -> s
    | None ->
      Fmt.epr "unknown optimization level %S@." l;
      exit 1)
  | None, Some s -> (
    match Passes.Pass.sequence_of_string s with
    | Ok s -> s
    | Error e ->
      Fmt.epr "bad sequence: %s@." e;
      exit 1)
  | None, None -> []

(* common args *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mira")

let arch_arg =
  Arg.(value & opt string "amd-like" & info [ "arch" ] ~docv:"ARCH"
         ~doc:"Target machine model (amd-like, c6713-like, embedded).")

let level_arg =
  Arg.(value & opt (some string) None & info [ "O" ] ~docv:"LEVEL"
         ~doc:"Fixed pipeline: O0, O1, O2, Ofast.")

let seq_arg =
  Arg.(value & opt (some string) None & info [ "seq" ] ~docv:"P1,P2,..."
         ~doc:"Explicit optimization sequence (pass names, comma separated).")

let kb_arg =
  Arg.(required & opt (some string) None & info [ "kb" ] ~docv:"FILE"
         ~doc:"Knowledge-base file.")

(* --- observability ------------------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json"
         ~doc:"Stream a Chrome trace_event JSON trace of this run to \
               $(docv); load it in chrome://tracing or Perfetto.  The \
               file is flushed per event, so a crashed run still leaves \
               a loadable trace.")

let metrics_arg =
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "metrics" ] ~docv:"FILE.jsonl"
           ~doc:"Record metrics (counters, gauges, timing histograms).  \
                 Without $(docv) the table is printed to stdout at exit; \
                 with $(docv), one JSON object per metric is written \
                 there.")

(* Both sinks are finalized from [at_exit] so even error exits (trap,
   fuel, cache) report what happened up to that point.  Forked pool
   workers inherit these hooks; the pid guard keeps a worker from
   closing the parent's trace or printing its table. *)
let obs_setup trace metrics =
  (match metrics with
   | Some _ -> Obs.Metrics.timing := true
   | None -> ());
  (match trace with
   | None -> ()
   | Some path -> (
     match open_out path with
     | oc ->
       Obs.Trace.enable_stream oc;
       let owner = Unix.getpid () in
       at_exit (fun () ->
           if Unix.getpid () = owner then begin
             Obs.Trace.finish ();
             close_out_noerr oc
           end)
     | exception Sys_error e ->
       Fmt.epr "miracc: cannot open trace file: %s@." e;
       exit 1));
  match metrics with
  | None -> ()
  | Some dest ->
    let owner = Unix.getpid () in
    at_exit (fun () ->
        if Unix.getpid () = owner then
          if dest = "" then Fmt.pr "%a" Obs.Metrics.pp_table ()
          else
            match open_out dest with
            | oc ->
              output_string oc (Obs.Metrics.to_jsonl ());
              close_out_noerr oc
            | exception Sys_error e ->
              Fmt.epr "miracc: cannot write metrics file: %s@." e)

let obs_term = Cmdliner.Term.(const obs_setup $ trace_arg $ metrics_arg)

(* evaluation-engine args, shared by train/search *)
let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Evaluate sequences on $(docv) forked workers (1 = serial).")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Persist evaluation results under $(docv) (created if \
               missing); later runs reuse them.")

let cache_stats_arg =
  Arg.(value & flag & info [ "cache-stats" ]
         ~doc:"Print the evaluation-engine statistics table at the end.")

let no_share_arg =
  Arg.(value & flag & info [ "no-share" ]
         ~doc:"Disable prefix-sharing compilation and simulation dedup \
               in the evaluation engine (every miss compiles and \
               simulates from scratch). Results are identical either \
               way; this is the differential baseline.")

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
         ~doc:"Deterministic fault injection for testing: comma-separated \
               point@occurrence[=arg] directives (e.g. worker-crash@3, \
               torn-append@5). Also readable from \\$MIRA_FAULTS.")

let max_restarts_arg =
  Arg.(value & opt int Engine.Pool.default_max_respawns
       & info [ "max-worker-restarts" ] ~docv:"N"
           ~doc:"Give up respawning dead evaluation workers after $(docv) \
                 attempts per batch and degrade to serial execution.")

(* exit code 4: the cache directory cannot be used (locked, unreadable,
   not a cache); distinct from source errors (1), traps (2), fuel (3) *)
let cache_error_exit = 4

(* exit code 5: distributed-sweep orchestration failure (socket
   unusable, worker rejected, protocol breakdown) *)
let dist_error_exit = 5

(* exit code 6: a knowledge-base file that cannot be read, parsed or
   written *)
let kb_error_exit = 6

let kb_io f =
  try f () with
  | Knowledge.Kb.Parse_error e | Sys_error e ->
    Fmt.epr "miracc: knowledge base error: %s@." e;
    exit kb_error_exit

(* [f] gets a trace cache backed by the trace store at [dir], or none
   without one.  Trace-store failures share the cache exit code: same
   class of error (a store directory that cannot be used), same
   operator remedy *)
let with_tcache dir f =
  match dir with
  | None -> f None
  | Some dir ->
    let ts =
      match Engine.Tstore.open_dir dir with
      | ts -> ts
      | exception (Engine.Tstore.Store_error e | Sys_error e) ->
        Fmt.epr "miracc: trace store error: %s@." e;
        exit cache_error_exit
    in
    Fun.protect
      ~finally:(fun () -> Engine.Tstore.close ts)
      (fun () -> f (Some (Engine.Tcache.create ~store:ts ())))

let make_engine ~config ~jobs ~cache ~inject ~max_restarts ~share =
  (match inject with
   | Some spec -> (
     match Engine.Faults.parse spec with
     | Ok plan -> Engine.Faults.install plan
     | Error e ->
       Fmt.epr "miracc: bad --inject spec: %s@." e;
       exit 1)
   | None -> (
     try Engine.Faults.install_from_env ()
     with Invalid_argument e ->
       Fmt.epr "miracc: bad MIRA_FAULTS: %s@." e;
       exit 1));
  let cache =
    Option.map
      (fun dir ->
        match Engine.Rcache.open_dir dir with
        | c -> c
        | exception Engine.Rcache.Cache_error e ->
          Fmt.epr "miracc: cache error: %s@." e;
          exit cache_error_exit
        | exception Sys_error e ->
          Fmt.epr "miracc: cache error: %s@." e;
          exit cache_error_exit)
      cache
  in
  Engine.create ~jobs ?cache ~max_respawns:max_restarts ~share config

let finish_engine ~cache_stats eng =
  if cache_stats then Fmt.pr "%a" (Engine.pp_stats ~wall:true) eng;
  if not (Engine.healthy eng) then Fmt.epr "%a@." Engine.pp_health eng;
  Engine.Rcache.close (Engine.cache eng)

(* --- compile ------------------------------------------------------- *)

let compile_cmd =
  let doc = "Compile a Mira program and print its IR." in
  let run file level seq stats =
    let p = load_program file in
    let passes = parse_seq ~level ~seq in
    let p' = Passes.Pass.apply_sequence passes p in
    if stats then
      Fmt.pr "passes: %s@.size: %d -> %d instrs@."
        (Passes.Pass.sequence_to_string passes)
        (Mira.Ir.program_size p) (Mira.Ir.program_size p')
    else Fmt.pr "%s" (Mira.Ir.to_string p')
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print size stats instead of IR.")
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ level_arg $ seq_arg $ stats_arg)

(* --- run ----------------------------------------------------------- *)

let run_cmd =
  let doc = "Compile and execute on the cycle-level machine simulator." in
  let run file arch level seq show_counters engine profile () =
    if profile then Obs.Metrics.timing := true;
    let p = load_program file in
    let config = arch_of_name arch in
    let p' = Passes.Pass.apply_sequence (parse_seq ~level ~seq) p in
    let simulate () = Mach.Sim.run ~engine ~config p' in
    (* --profile: one line on stderr with the decode/execute wall-time
       split, read back from the instrumentation histograms the run
       fills (the ref engine never decodes, reported as such) *)
    let execute () =
      if not profile then simulate ()
      else begin
        let decode_h = Obs.Metrics.histogram "decode.translate_ms" in
        let execute_h = Obs.Metrics.histogram "sim.execute_ms" in
        let r = simulate () in
        let e = Obs.Metrics.hist_sum execute_h in
        (if Obs.Metrics.hist_count decode_h = 0 then
           Fmt.epr "profile: decode n/a (ref engine), execute %.3f ms@." e
         else
           let d = Obs.Metrics.hist_sum decode_h in
           Fmt.epr "profile: decode %.3f ms, execute %.3f ms (decode %.1f%% \
                    of total)@."
             d e
             (100. *. d /. Float.max 1e-9 (d +. e)));
        r
      end
    in
    match execute () with
    | r ->
      print_string r.Mach.Sim.output;
      Fmt.pr "return: %s@." (Mira.Interp.value_to_string r.Mach.Sim.ret);
      Fmt.pr "cycles: %d  instructions: %d  CPI: %.2f@." r.Mach.Sim.cycles
        r.Mach.Sim.steps
        (float_of_int r.Mach.Sim.cycles /. float_of_int (max 1 r.Mach.Sim.steps));
      if show_counters then Fmt.pr "%a" Mach.Counters.pp r.Mach.Sim.counters
    | exception Mira.Interp.Trap m ->
      Fmt.epr "trap: %s@." m;
      exit 2
    | exception Mira.Interp.Out_of_fuel ->
      Fmt.epr "out of fuel (program too long or diverging)@.";
      exit 3
  in
  let counters_flag =
    Arg.(value & flag & info [ "counters" ] ~doc:"Dump the raw counter bank.")
  in
  let profile_flag =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print a one-line decode/execute wall-time split on stderr.")
  in
  let engine_arg =
    Arg.(value
         & opt (enum [ ("ref", Mach.Sim.Ref); ("flat", Mach.Sim.Flat) ])
             Mach.Sim.Flat
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Execution engine: $(b,flat) (pre-decoded bytecode, the \
                   default) or $(b,ref) (the reference interpreter, kept \
                   as the semantics oracle).  Both produce bit-identical \
                   results.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ file_arg $ arch_arg $ level_arg $ seq_arg $ counters_flag
          $ engine_arg $ profile_flag $ obs_term)

(* --- features ------------------------------------------------------ *)

let features_cmd =
  let doc = "Print the static feature vector of a program." in
  let run file =
    let p = load_program file in
    List.iter (fun (n, v) -> Fmt.pr "%-22s %g@." n v) (Icc.Features.extract p)
  in
  Cmd.v (Cmd.info "features" ~doc) Term.(const run $ file_arg)

(* --- counters ------------------------------------------------------ *)

let counters_cmd =
  let doc = "Profile at -O0 and print per-instruction counter rates." in
  let run file arch configs tstore () =
    let p = load_program file in
    (* one semantic execution (the trace, served from the trace store
       with --tstore), one model replay per config in this process *)
    let price configs =
      with_tcache tstore (fun tcache ->
          Engine.Grid.run_grid ?tcache ~configs p)
    in
    match configs with
    | None ->
      let config = arch_of_name arch in
      let r =
        if tstore = None then Mach.Sim.run ~config p
        else (price [| config |]).(0)
      in
      List.iter
        (fun (n, v) -> Fmt.pr "%-10s %.6f@." n v)
        (Icc.Characterize.counter_assoc r.Mach.Sim.counters)
    | Some names ->
      (* architecture grid: one column per config *)
      let configs =
        names |> String.split_on_char ',' |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map arch_of_name |> Array.of_list
      in
      if Array.length configs = 0 then begin
        Fmt.epr "miracc: --configs needs at least one architecture@.";
        exit 1
      end;
      let assocs =
        Array.map
          (fun (r : Mach.Sim.result) ->
            Icc.Characterize.counter_assoc r.Mach.Sim.counters)
          (price configs)
      in
      Fmt.pr "%-10s" "counter";
      Array.iter (fun c -> Fmt.pr " %12s" c.Mach.Config.name) configs;
      Fmt.pr "@.";
      List.iteri
        (fun i (n, _) ->
          Fmt.pr "%-10s" n;
          Array.iter (fun a -> Fmt.pr " %12.6f" (snd (List.nth a i))) assocs;
          Fmt.pr "@.")
        assocs.(0)
  in
  let configs_arg =
    Arg.(value & opt (some string) None & info [ "configs" ] ~docv:"A,B,..."
           ~doc:"Price the program against several machine configs in \
                 one pass (trace-once/model-many): the program is \
                 executed once, the recorded event trace is replayed \
                 per config, and the table gets one column per config.")
  in
  let tstore_arg =
    Arg.(value & opt (some string) None & info [ "tstore" ] ~docv:"DIR"
           ~doc:"Persist generated event traces under $(docv) (created if \
                 missing); later runs price the program from the stored \
                 trace instead of re-executing it.  The table is the one \
                 a run without the store prints, byte for byte.")
  in
  Cmd.v (Cmd.info "counters" ~doc)
    Term.(const run $ file_arg $ arch_arg $ configs_arg $ tstore_arg
          $ obs_term)

(* --- workloads ----------------------------------------------------- *)

let workloads_cmd =
  let doc = "List the built-in benchmark suite." in
  let run () =
    List.iter
      (fun w ->
        Fmt.pr "%-10s %-10s %s@." w.Workloads.name
          (Workloads.family_name w.Workloads.family)
          w.Workloads.descr)
      Workloads.all
  in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const run $ const ())

(* --- train --------------------------------------------------------- *)

let train_cmd =
  let doc =
    "Build a knowledge base by exploring the built-in workload suite."
  in
  let run out arch per_program exclude jobs cache cache_stats inject
      max_restarts no_share () =
    let config = arch_of_name arch in
    let programs =
      Workloads.all
      |> List.filter (fun w -> not (List.mem w.Workloads.name exclude))
      |> List.map (fun w -> (w.Workloads.name, Workloads.program w))
    in
    Fmt.pr "training on %d programs, %d sequences each (%s)...@."
      (List.length programs) per_program config.Mach.Config.name;
    let eng =
      make_engine ~config ~jobs ~cache ~inject ~max_restarts
        ~share:(not no_share)
    in
    let kb =
      Icc.Characterize.build_kb ~engine:eng ~config ~per_program programs
    in
    kb_io (fun () -> Knowledge.Kb.save kb out);
    Fmt.pr "wrote %s: %d experiments, %d programs@." out (Knowledge.Kb.size kb)
      (List.length (Knowledge.Kb.programs kb));
    finish_engine ~cache_stats eng
  in
  let out_arg =
    Arg.(value & opt string "suite.kb" & info [ "out"; "o" ] ~docv:"FILE")
  in
  let pp_arg =
    Arg.(value & opt int 40 & info [ "per-program" ] ~docv:"N"
           ~doc:"Random sequences evaluated per training program.")
  in
  let excl_arg =
    Arg.(value & opt_all string [] & info [ "exclude" ] ~docv:"NAME"
           ~doc:"Hold a workload out of training (repeatable).")
  in
  Cmd.v (Cmd.info "train" ~doc)
    Term.(
      const run $ out_arg $ arch_arg $ pp_arg $ excl_arg $ jobs_arg
      $ cache_dir_arg $ cache_stats_arg $ inject_arg $ max_restarts_arg
      $ no_share_arg $ obs_term)

(* --- predict ------------------------------------------------------- *)

let predict_cmd =
  let doc = "One-shot optimization prediction from a knowledge base." in
  let run file arch kb_path use_counters trials () =
    let p = load_program file in
    let config = arch_of_name arch in
    let kb = kb_io (fun () -> Knowledge.Kb.load kb_path) in
    let compiled =
      if use_counters then
        Icc.Controller.one_shot_counters ~config ~trials kb p
      else Icc.Controller.one_shot ~config kb p
    in
    let d = compiled.Icc.Controller.decision in
    Fmt.pr "predicted sequence: %s@."
      (Passes.Pass.sequence_to_string d.Icc.Controller.sequence);
    Fmt.pr "based on: %s@."
      (String.concat ", " d.Icc.Controller.predicted_from);
    Fmt.pr "target-system runs spent: %d@." d.Icc.Controller.evaluations;
    let c0 = Icc.Characterize.eval_sequence ~config p [] in
    let c1 =
      Icc.Characterize.eval_sequence ~config p d.Icc.Controller.sequence
    in
    Fmt.pr "cycles: %.0f -> %.0f (speedup %.2fx)@." c0 c1 (c0 /. c1)
  in
  let counters_flag =
    Arg.(value & flag & info [ "counters" ]
           ~doc:"Use the performance-counter model (one -O0 profiling run).")
  in
  let trials_arg =
    Arg.(value & opt int 1 & info [ "trials" ] ~docv:"N"
           ~doc:"Evaluate the top N counter-model candidates online.")
  in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(const run $ file_arg $ arch_arg $ kb_arg $ counters_flag
          $ trials_arg $ obs_term)

(* --- search -------------------------------------------------------- *)

let search_cmd =
  let doc = "Search the optimization space for a program." in
  let run file arch strategy budget seed kb_path jobs cache cache_stats
      inject max_restarts no_share distribute dist_dir () =
    if distribute > 1 && strategy <> "random" then begin
      Fmt.epr "miracc: --distribute requires --strategy random@.";
      exit 1
    end;
    let p = load_program file in
    let config = arch_of_name arch in
    let eng =
      make_engine ~config ~jobs ~cache ~inject ~max_restarts
        ~share:(not no_share)
    in
    let eval = Engine.evaluator eng p in
    let result =
      match strategy with
      | "random" when distribute > 1 ->
        (* one-command local distribution: fork [distribute] workers,
           each a full engine evaluating shards of the same planned
           schedule into its own journal + cache; bit-identical to the
           batched serial walk below by construction *)
        let seqs = Search.Strategies.random_plan ~seed ~budget () in
        let job =
          Digest.to_hex
            (Digest.string
               (String.concat "\x00"
                  (Mach.Config.digest config :: Engine.ir_digest p
                   :: Printf.sprintf "seed=%d" seed
                   :: Printf.sprintf "budget=%d" budget
                   :: (Array.to_list seqs
                       |> List.map Passes.Pass.sequence_to_string))))
        in
        let n = Array.length seqs in
        let spec =
          { Engine.Dist.job; n; chunk_size = 10;
            shards = min n (distribute * 4) }
        in
        let make_eval ~worker_dir =
          let wcache =
            Engine.Rcache.open_dir (Filename.concat worker_dir "cache")
          in
          let weng =
            Engine.create ~jobs:1 ~cache:wcache ~share:(not no_share) config
          in
          fun lo hi ->
            Engine.costs weng p (Array.to_list (Array.sub seqs lo (hi - lo)))
        in
        (match
           Engine.Dist.sweep_local ~workers:distribute ~dir:dist_dir
             ~cache:(Engine.cache eng)
             ~meta:
               [ ("program", file); ("arch", config.Mach.Config.name);
                 ("seed", string_of_int seed);
                 ("budget", string_of_int budget) ]
             spec ~make_eval
         with
         | _st, costs ->
           Search.Strategies.exhaustive_batched (Array.to_list seqs)
             (fun _ -> costs)
         | exception Engine.Dist.Dist_error e ->
           Fmt.epr "miracc: dist error: %s@." e;
           exit dist_error_exit)
      | "random" ->
        (* batched: plan the whole random schedule up front, score it in
           one engine batch (prefix sharing, simulation dedup and the
           pool see the whole sweep), and replay — identical by
           construction to the serial walk *)
        let seqs = Search.Strategies.random_plan ~seed ~budget () in
        Search.Strategies.exhaustive_batched (Array.to_list seqs)
          (Engine.costs eng p)
      | "hill" -> Search.Strategies.hill_climb ~seed ~budget eval
      | "genetic" -> Search.Strategies.genetic ~seed eval
      | "focused" -> begin
        match kb_path with
        | None ->
          Fmt.epr "focused search needs --kb@.";
          exit 1
        | Some path ->
          let kb = kb_io (fun () -> Knowledge.Kb.load path) in
          let feats =
            Icc.Features.restrict_to_similarity (Icc.Features.extract p)
          in
          let model =
            Search.Focused.fit_model kb ~arch:config.Mach.Config.name
              ~params:Search.Focused.default_params ~target_features:feats
          in
          Search.Focused.search ~seed ~budget model eval
      end
      | s ->
        Fmt.epr "unknown strategy %S (random|hill|genetic|focused)@." s;
        exit 1
    in
    let o0 = eval [] in
    Fmt.pr "evaluations: %d@." result.Search.Strategies.evals;
    Fmt.pr "best sequence: %s@."
      (Passes.Pass.sequence_to_string result.Search.Strategies.best_seq);
    Fmt.pr "cycles: %.0f -> %.0f (speedup %.2fx)@." o0
      result.Search.Strategies.best_cost
      (o0 /. result.Search.Strategies.best_cost);
    finish_engine ~cache_stats eng
  in
  let strategy_arg =
    Arg.(value & opt string "focused" & info [ "strategy" ] ~docv:"S")
  in
  let budget_arg =
    Arg.(value & opt int 20 & info [ "budget" ] ~docv:"N")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let kb_opt =
    Arg.(value & opt (some string) None & info [ "kb" ] ~docv:"FILE")
  in
  let distribute_arg =
    Arg.(value & opt int 1 & info [ "distribute" ] ~docv:"N"
           ~doc:"Run the sweep on $(docv) forked worker processes, each \
                 a full engine with its own journal and cache, merged at \
                 the end; random strategy only.  Results are \
                 bit-identical to a single-process run.")
  in
  let search_dist_dir_arg =
    Arg.(value & opt string "mira-dist" & info [ "dist-dir" ] ~docv:"DIR"
           ~doc:"Run directory for --distribute (manifest, per-worker \
                 journals and caches).")
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(
      const run $ file_arg $ arch_arg $ strategy_arg $ budget_arg $ seed_arg
      $ kb_opt $ jobs_arg $ cache_dir_arg $ cache_stats_arg $ inject_arg
      $ max_restarts_arg $ no_share_arg $ distribute_arg $ search_dist_dir_arg
      $ obs_term)

(* --- distributed sweeps -------------------------------------------- *)

(* Both ends of a distributed sweep independently reconstruct the same
   sequence list from (file, arch, seed, samples) and fold it all into
   the job digest, so a worker launched with different inputs is
   rejected at hello instead of contributing wrong numbers. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sweep_inputs ~p ~config ~seed ~samples =
  let rng = Random.State.make [| seed |] in
  let seqs = Array.of_list (Search.Space.sample_distinct rng samples) in
  let job =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (Mach.Config.digest config :: Engine.ir_digest p
             :: Printf.sprintf "seed=%d" seed
             :: Printf.sprintf "samples=%d" samples
             :: (Array.to_list seqs |> List.map Passes.Pass.sequence_to_string))))
  in
  (seqs, job)

let report_best seqs costs =
  let best = ref 0 in
  Array.iteri (fun i c -> if c < costs.(!best) then best := i) costs;
  Fmt.pr "evaluations: %d@." (Array.length costs);
  Fmt.pr "best sequence: %s@."
    (Passes.Pass.sequence_to_string seqs.(!best));
  Fmt.pr "best cost: %.0f cycles@." costs.(!best)

let dist_dir_arg =
  Arg.(value & opt string "mira-dist" & info [ "dir" ] ~docv:"DIR"
         ~doc:"Run directory: the manifest, the coordinator socket and \
               (for local workers) per-worker journals and caches live \
               under $(docv).")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path (default: DIR/coord.sock).")

let samples_arg =
  Arg.(value & opt int 400 & info [ "samples" ] ~docv:"N"
         ~doc:"Distinct random sequences in the sweep.")

let sweep_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Sampling seed; part of the job key.")

let chunk_arg =
  Arg.(value & opt int 10 & info [ "chunk-size" ] ~docv:"N"
         ~doc:"Journal checkpoint granularity within a shard.")

let sweep_serve_cmd =
  let doc = "Coordinate a distributed sweep: serve shards to workers." in
  let run file arch samples seed workers shards chunk dir socket cache
      cache_stats () =
    if samples <= 0 then begin
      Fmt.epr "miracc: --samples must be > 0@.";
      exit 1
    end;
    let p = load_program file in
    let config = arch_of_name arch in
    let seqs, job = sweep_inputs ~p ~config ~seed ~samples in
    let socket = Option.value socket ~default:(Filename.concat dir "coord.sock") in
    let shards = match shards with Some s -> s | None -> workers * 4 in
    let spec =
      { Engine.Dist.job; n = Array.length seqs; chunk_size = chunk; shards }
    in
    let meta =
      [ ("program", file); ("arch", config.Mach.Config.name);
        ("seed", string_of_int seed); ("samples", string_of_int samples) ]
    in
    match Engine.Dist.serve ~socket ~dir ~workers ~meta spec with
    | st, costs ->
      report_best seqs costs;
      Fmt.pr "workers: %d, shards: %d, steals: %d, requeues: %d, deaths: %d@."
        st.Engine.Dist.workers_seen st.Engine.Dist.shards_served
        st.Engine.Dist.steals st.Engine.Dist.requeues
        st.Engine.Dist.worker_deaths;
      (match cache with
       | None -> ()
       | Some cdir -> (
         (* fold whatever worker caches landed under dir/workers/ into
            the primary store, the same merge sweep_local does *)
         match Engine.Rcache.open_dir cdir with
         | primary ->
           let wroot = Filename.concat dir "workers" in
           let donors =
             match Sys.readdir wroot with
             | names ->
               Array.to_list names
               |> List.sort compare
               |> List.map (fun n ->
                      Filename.concat (Filename.concat wroot n) "cache")
               |> List.filter Sys.file_exists
             | exception Sys_error _ -> []
           in
           (* a worker that just heard [fin] may still hold its cache
              lock for a moment while it shuts down — retry briefly
              before declaring the donor unmergeable *)
           let absorb_patiently donor =
             let rec go tries =
               match Engine.Rcache.absorb primary donor with
               | s -> Some s
               | exception Engine.Rcache.Cache_error e ->
                 if tries > 0 then begin
                   ignore (Unix.select [] [] [] 0.1);
                   go (tries - 1)
                 end
                 else begin
                   Fmt.epr
                     "miracc: skipping unmergeable worker cache %s: %s@."
                     donor e;
                   None
                 end
             in
             go 30
           in
           let a, d, r =
             List.fold_left
               (fun (a, d, r) donor ->
                 match absorb_patiently donor with
                 | Some s ->
                   ( a + s.Engine.Rcache.absorbed,
                     d + s.Engine.Rcache.duplicates,
                     r + s.Engine.Rcache.rejected )
                 | None -> (a, d, r))
               (0, 0, 0) donors
           in
           Fmt.pr "cache merge: %d absorbed, %d duplicates, %d rejected@." a d r;
           if cache_stats then
             Fmt.pr "primary cache entries resident: %d@."
               (Engine.Rcache.resident primary);
           Engine.Rcache.close primary
         | exception Engine.Rcache.Cache_error e ->
           Fmt.epr "miracc: cache error: %s@." e;
           exit cache_error_exit))
    | exception Engine.Dist.Dist_error e ->
      Fmt.epr "miracc: dist error: %s@." e;
      exit dist_error_exit
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Expected worker count (home-slot count for shard homing).")
  in
  let shards_arg =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
           ~doc:"Shards to plan (default: workers * 4).")
  in
  Cmd.v (Cmd.info "sweep-serve" ~doc)
    Term.(
      const run $ file_arg $ arch_arg $ samples_arg $ sweep_seed_arg
      $ workers_arg $ shards_arg $ chunk_arg $ dist_dir_arg $ socket_arg
      $ cache_dir_arg $ cache_stats_arg $ obs_term)

let sweep_work_cmd =
  let doc = "Join a distributed sweep as a worker." in
  let run file arch samples seed chunk dir socket slot name jobs cache_stats
      inject max_restarts no_share () =
    let p = load_program file in
    let config = arch_of_name arch in
    let seqs, job = sweep_inputs ~p ~config ~seed ~samples in
    let socket = Option.value socket ~default:(Filename.concat dir "coord.sock") in
    (* shards is the coordinator's business; the worker only needs the
       job identity and the chunking *)
    let spec =
      { Engine.Dist.job; n = Array.length seqs; chunk_size = chunk; shards = 1 }
    in
    mkdir_p dir;
    let eng =
      make_engine ~config ~jobs ~cache:(Some (Filename.concat dir "cache"))
        ~inject ~max_restarts ~share:(not no_share)
    in
    let eval lo hi =
      Engine.costs eng p (Array.to_list (Array.sub seqs lo (hi - lo)))
    in
    match Engine.Dist.work ?name ~slot ~socket ~dir spec ~eval () with
    | completed ->
      Fmt.pr "shards completed: %d@." completed;
      finish_engine ~cache_stats eng
    | exception Engine.Dist.Dist_error e ->
      Fmt.epr "miracc: dist error: %s@." e;
      exit dist_error_exit
  in
  let slot_arg =
    Arg.(value & opt int (-1) & info [ "slot" ] ~docv:"N"
           ~doc:"Home slot to request ($(docv) >= 0): a rejoining worker \
                 given its old slot is offered its half-journaled shard \
                 first.")
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Worker name shown to the coordinator (default: w<pid>).")
  in
  Cmd.v (Cmd.info "sweep-work" ~doc)
    Term.(
      const run $ file_arg $ arch_arg $ samples_arg $ sweep_seed_arg
      $ chunk_arg $ dist_dir_arg $ socket_arg $ slot_arg $ name_arg
      $ jobs_arg $ cache_stats_arg $ inject_arg $ max_restarts_arg
      $ no_share_arg $ obs_term)

let sweep_status_cmd =
  let doc =
    "Report a distributed run directory: progress, per-worker health, rollup."
  in
  (* one snapshot of the run, rebuilt cold from the directory (manifest
     + journals + worker metrics + any live rollup.json the coordinator
     left) — works on finished, crashed and in-flight runs alike *)
  let snapshot dir =
    match Engine.Dist.survey ~dir with
    | Some input -> input
    | None ->
      let path = Filename.concat dir "manifest.json" in
      Fmt.epr "miracc: %s manifest at %s@."
        (if Sys.file_exists path then "unreadable" else "no")
        path;
      exit 1
  in
  let totals (input : Obs.Rollup.input) =
    List.fold_left
      (fun (d, t, torn) (s : Obs.Rollup.shard) ->
        (d + s.chunks_done, t + s.chunks_total, torn + s.torn))
      (0, 0, 0) input.Obs.Rollup.shards
  in
  let progress_line (input : Obs.Rollup.input) =
    let done_, total, torn = totals input in
    let pct = if total > 0 then 100 * done_ / total else 0 in
    let b = Buffer.create 80 in
    Buffer.add_string b
      (Printf.sprintf "progress: %d/%d chunks (%d%%)" done_ total pct);
    let el = input.Obs.Rollup.elapsed_s in
    if el > 0.0 && done_ > 0 then begin
      Buffer.add_string b (Printf.sprintf ", elapsed %.1fs" el);
      if done_ < total then
        Buffer.add_string b
          (Printf.sprintf ", eta %.1fs"
             (el /. float_of_int done_ *. float_of_int (total - done_)))
    end;
    if torn > 0 then
      Buffer.add_string b
        (Printf.sprintf " [%d torn line%s skipped]" torn
           (if torn = 1 then "" else "s"));
    Buffer.contents b
  in
  let print_human dir (input : Obs.Rollup.input) =
    (* the manifest's provenance fields, spelled as in the file *)
    let manifest = Filename.concat dir "manifest.json" in
    (match Obs.Json.(parse (read_file manifest)) with
     | Obs.Json.Obj members ->
       List.iter
         (fun ((k, _) as m) ->
           if
             List.mem k
               [ "schema"; "run"; "git_rev"; "git_dirty"; "job"; "n";
                 "chunk_size"; "shards" ]
           then Fmt.pr "%s,@." (Obs.Json.member m))
         members
     | _ | (exception (Sys_error _ | Obs.Json.Error _)) -> ());
    List.iter
      (fun (s : Obs.Rollup.shard) ->
        Fmt.pr "shard %d%s: %d/%d chunks%s@." s.shard
          (if s.worker = "" then "" else Printf.sprintf " (%s)" s.worker)
          s.chunks_done s.chunks_total
          (if s.torn > 0 then
             Printf.sprintf " [%d torn line%s skipped]" s.torn
               (if s.torn = 1 then "" else "s")
           else ""))
      input.Obs.Rollup.shards;
    Fmt.pr "%s@." (progress_line input);
    if input.Obs.Rollup.workers_seen > 0 then
      Fmt.pr
        "workers: %d seen, %d deaths, %d respawns, %d steals, %d requeues@."
        input.Obs.Rollup.workers_seen input.Obs.Rollup.worker_deaths
        input.Obs.Rollup.respawns input.Obs.Rollup.steals
        input.Obs.Rollup.requeues
  in
  let complete (input : Obs.Rollup.input) =
    let done_, total, _ = totals input in
    total > 0 && done_ = total
  in
  let run dir follow json =
    if follow then begin
      (* tail the journals until every chunk is in; one compact line per
         refresh so the terminal shows the run converging *)
      let continue = ref true in
      while !continue do
        let input = snapshot dir in
        Fmt.pr "%s@." (progress_line input);
        if complete input then continue := false else Unix.sleepf 0.5
      done;
      if not json then print_human dir (snapshot dir)
    end;
    let input = snapshot dir in
    if json then print_string (Obs.Rollup.to_json input)
    else if not follow then print_human dir input
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"The run directory to describe.")
  in
  let follow_arg =
    Arg.(value & flag & info [ "follow" ]
           ~doc:"Keep tailing the journals, printing a progress/ETA line \
                 per refresh, until the run completes.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the run rollup (schema icc-rollup/1) instead of \
                 the human report.")
  in
  Cmd.v (Cmd.info "sweep-status" ~doc)
    Term.(const run $ dir_arg $ follow_arg $ json_arg)

let trace_merge_cmd =
  let doc = "Merge a run's per-process trace files into one Chrome trace." in
  let run dir output =
    let sources = Engine.Dist.trace_sources ~dir in
    if sources = [] then begin
      Fmt.epr "miracc: no trace files under %s@." dir;
      exit 1
    end;
    let out_path =
      match output with
      | Some o -> o
      | None -> Filename.concat dir "trace-merged.json"
    in
    (* never merge the previous merge back in *)
    let sources = List.filter (fun (_, p) -> p <> out_path) sources in
    match open_out out_path with
    | exception Sys_error e ->
      Fmt.epr "miracc: cannot write %s: %s@." out_path e;
      exit 1
    | oc ->
      let st =
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Obs.Merge.merge_files sources oc)
      in
      Fmt.pr "merged %d trace files, %d events -> %s@." st.Obs.Merge.files
        st.Obs.Merge.events out_path;
      (match st.Obs.Merge.run with
       | Some r -> Fmt.pr "run: %s@." r
       | None -> Fmt.pr "run: (no shared id)@.");
      if st.Obs.Merge.skipped > 0 then
        Fmt.pr "skipped %d torn line%s@." st.Obs.Merge.skipped
          (if st.Obs.Merge.skipped = 1 then "" else "s");
      List.iter
        (fun l ->
          Fmt.epr "miracc: warning: %s announced no matching run id@." l)
        st.Obs.Merge.mismatched
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"The run directory whose trace files to merge \
                 (trace*.json at the top level is the coordinator, \
                 workers/*/trace*.json the workers).")
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the merged trace to $(docv) (default: \
                 DIR/trace-merged.json).")
  in
  Cmd.v (Cmd.info "trace-merge" ~doc)
    Term.(const run $ dir_arg $ output_arg)

(* --- dynamic ------------------------------------------------------- *)

let dynamic_cmd =
  let doc = "Demo the dynamic optimizer on a phase-changing workload." in
  let run phases per_phase =
    let intervals = Icc.Dynamic.phased_intervals ~phases ~per_phase () in
    let r = Icc.Dynamic.run Icc.Dynamic.default_config intervals in
    Fmt.pr "intervals: %d, phase changes detected: %d, audited intervals: %d@."
      (List.length intervals) r.Icc.Dynamic.phase_changes_detected
      r.Icc.Dynamic.audits;
    Fmt.pr "O0 everywhere      : %d cycles@." r.Icc.Dynamic.o0_cycles;
    Fmt.pr "static best (%-6s): %d cycles@." r.Icc.Dynamic.static_best_name
      r.Icc.Dynamic.static_best_cycles;
    Fmt.pr "dynamic optimizer  : %d cycles (overhead %d)@."
      r.Icc.Dynamic.total_cycles r.Icc.Dynamic.overhead_cycles;
    Fmt.pr "oracle             : %d cycles@." r.Icc.Dynamic.oracle_cycles
  in
  let phases_arg = Arg.(value & opt int 6 & info [ "phases" ] ~docv:"N") in
  let per_arg = Arg.(value & opt int 8 & info [ "per-phase" ] ~docv:"N") in
  Cmd.v (Cmd.info "dynamic" ~doc) Term.(const run $ phases_arg $ per_arg)

let () =
  (* real time for the observability layer (Obs itself is clockless) *)
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  (* MIRA_FAULTS applies to every command, engine-backed or not (the
     trace-store paths of run/counters have no engine); --inject, where
     offered, overrides it in make_engine *)
  (try Engine.Faults.install_from_env ()
   with Invalid_argument e ->
     Fmt.epr "miracc: bad MIRA_FAULTS: %s@." e;
     exit 1);
  let doc = "an intelligent compiler for the Mira language" in
  let info = Cmd.info "miracc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; features_cmd; counters_cmd; workloads_cmd;
            train_cmd; predict_cmd; search_cmd; sweep_serve_cmd;
            sweep_work_cmd; sweep_status_cmd; trace_merge_cmd; dynamic_cmd;
          ]))

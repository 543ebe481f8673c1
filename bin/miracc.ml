(* miracc — the intelligent-compiler command-line driver.

   Subcommands:
     compile    parse/typecheck/optimize a Mira file, print the IR
     run        compile and execute on the machine simulator
     features   print the static feature vector
     counters   print the -O0 performance-counter characterization
     train      build a knowledge base from the built-in workload suite
     predict    one-shot optimization prediction from a knowledge base
     search     iterative search for a good sequence (random/hill/genetic/focused)
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

(* a negative restart budget is a usage error (exit 124), not an
   [Invalid_argument] out of Pool.map *)
let non_negative_int =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | _ ->
          Error (Printf.sprintf "invalid value '%s', must be >= 0" s)),
      Format.pp_print_int )

let max_restarts_arg =
  Arg.(value & opt non_negative_int Engine.Pool.default_max_respawns
       & info [ "max-worker-restarts" ] ~docv:"N"
           ~doc:"Give up respawning dead evaluation workers after $(docv) \
                 attempts per batch and degrade to serial execution.")

(* exit code 4: the cache directory cannot be used (locked, unreadable,
   not a cache); distinct from source errors (1), traps (2), fuel (3) *)
let cache_error_exit = 4

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
    (* one engine for the decision and both cycle counts: the counter
       model's -O0 profile is the baseline, and an online trial of the
       chosen sequence is its cycle count *)
    let eng = Engine.create config in
    let compiled =
      if use_counters then
        Icc.Controller.one_shot_counters ~engine:eng ~trials kb p
      else Icc.Controller.one_shot ~config kb p
    in
    let d = compiled.Icc.Controller.decision in
    Fmt.pr "predicted sequence: %s@."
      (Passes.Pass.sequence_to_string d.Icc.Controller.sequence);
    Fmt.pr "based on: %s@."
      (String.concat ", " d.Icc.Controller.predicted_from);
    Fmt.pr "target-system runs spent: %d@." d.Icc.Controller.evaluations;
    let cost = Engine.evaluator eng p in
    let c0 = cost [] in
    let c1 = cost d.Icc.Controller.sequence in
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
      inject max_restarts no_share () =
    let p = load_program file in
    let config = arch_of_name arch in
    let eng =
      make_engine ~config ~jobs ~cache ~inject ~max_restarts
        ~share:(not no_share)
    in
    let eval = Engine.evaluator eng p in
    let result =
      match strategy with
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
    Arg.(value & opt int 20 & info [ "budget" ] ~docv:"N"
           ~doc:"Evaluations to spend, a positive integer.  $(b,--strategy \
                 genetic) ignores it: its population and generation \
                 counts fix its cost.")
  in
  (* every strategy but genetic spends the budget, and Strategies raises
     [Invalid_argument] on one below 1: refuse it as a usage error *)
  let budget_term =
    Term.(
      cli_parse_result'
        (const (fun strategy budget ->
             if budget > 0 || strategy = "genetic" then Ok budget
             else
               Error
                 (Printf.sprintf
                    "option '--budget': invalid value '%d', must be >= 1"
                    budget))
        $ strategy_arg $ budget_arg))
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let kb_opt =
    Arg.(value & opt (some string) None & info [ "kb" ] ~docv:"FILE")
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(
      const run $ file_arg $ arch_arg $ strategy_arg $ budget_term $ seed_arg
      $ kb_opt $ jobs_arg $ cache_dir_arg $ cache_stats_arg $ inject_arg
      $ max_restarts_arg $ no_share_arg $ obs_term)

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
            train_cmd; predict_cmd; search_cmd; dynamic_cmd;
          ]))

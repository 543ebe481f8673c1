(* Experiment harness: regenerates every figure and table of the paper
   (see DESIGN.md's experiment index and EXPERIMENTS.md for measured
   results).

   Usage:
     dune exec bench/main.exe                  # all experiments, fast scale
     dune exec bench/main.exe -- fig2b tab3    # a subset
     dune exec bench/main.exe -- --full        # larger sample sizes
     dune exec bench/main.exe -- --list        # list experiment ids
     dune exec bench/main.exe -- --help        # flags and experiments

   The first run builds per-architecture knowledge bases and caches them
   under bench_data/. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig2a", "adpcm optimization-space structure + model contours", Fig2.fig2a);
    ("fig2b", "focused vs random iterative search", Fig2.fig2b);
    ("fig3", "mcf counter characterization vs suite average", Fig34.fig3);
    ("fig4", "PCModel vs -Ofast on mcf", Fig34.fig4);
    ("tab1", "classifier comparison (Sec V claim)", Tables.tab1);
    ("tab2", "GA for code size (Cooper et al. baseline)", Tables.tab2);
    ("tab3", "dynamic optimization vs static (Sec III-D)", Tables.tab3);
    ("tab4", "microbenchmark architecture characterization", Tables.tab4);
    ("tab5", "tournament phase ordering (Sec II-A)", Tables.tab5);
    ("feat", "mutual-information feature ranking (Sec III-E)", Tables.feat);
    ("tab6", "method-specific (per-function) compilation [extension]", Extensions.tab6);
    ("tab7", "unroll-factor prediction [extension]", Extensions.tab7);
    ("tab8", "cross-architecture adaptation [extension]", Extensions.tab8);
    ("micro", "bechamel microbenchmarks", Micro.run);
    ("sweep", "prefix-sharing sweep benchmark (cold/warm, share on/off)", Sweep.run);
    ("arch", "architecture-grid replay vs per-config simulation", Arch.run);
  ]

(* every flag, with its value's name if it takes one; anything else that
   starts with '-' is refused *)
let flag_docs =
  [ ("-j, --jobs N", "worker processes of the evaluation engine (default 1)");
    ("--full", "larger sample sizes");
    ("--list", "list the experiment ids and exit");
    ("--json", "micro, sweep and arch also write their BENCH_*.json file");
    ("--no-share", "disable the prefix-sharing trie and simulation dedup");
    ("--tstore DIR", "arch also runs against a trace store in DIR");
    ("--inject SPEC", "install a deterministic fault plan (testing)");
    ("--trace FILE", "stream a Chrome trace to FILE");
    ("--metrics FILE", "write the metrics as JSONL to FILE at exit");
    ("--help", "print this help and exit") ]

let list_experiments ~indent =
  List.iter
    (fun (id, descr, _) -> Fmt.pr "%s%-6s %s@." indent id descr)
    experiments

let usage () =
  Fmt.pr "usage: miracc-bench [FLAG]... [EXPERIMENT]...@.@.flags:@.";
  List.iter (fun (f, d) -> Fmt.pr "  %-15s %s@." f d) flag_docs;
  Fmt.pr "@.experiments (all of them when none is named):@.";
  list_experiments ~indent:"  "

let usage_error fmt =
  Fmt.kstr (fun msg -> Fmt.epr "%s@." msg; exit 1) fmt

let is_flag a = String.length a > 1 && a.[0] = '-'

let open_trace path =
  match open_out path with
  | oc ->
    Obs.Trace.enable_stream oc;
    let owner = Unix.getpid () in
    at_exit (fun () ->
        if Unix.getpid () = owner then begin
          Obs.Trace.finish ();
          close_out_noerr oc
        end)
  | exception Sys_error e -> usage_error "cannot open trace file: %s" e

let write_metrics_at_exit path =
  Obs.Metrics.timing := true;
  let owner = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = owner then
        match open_out path with
        | oc ->
          output_string oc (Obs.Metrics.to_jsonl ());
          close_out_noerr oc
        | exception Sys_error e -> Fmt.epr "cannot write metrics file: %s@." e)

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  (* the whole command line parses before any file is opened or any
     experiment runs; an unknown flag or a flag missing its value is
     refused *)
  let list_only = ref false
  and plan = ref None
  and trace = ref None
  and metrics = ref None in
  let rec parse names = function
    | [] -> List.rev names
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> Util.jobs := j
       | _ -> usage_error "-j expects a positive integer");
      parse names rest
    | "--full" :: rest -> Util.scale := Util.Full; parse names rest
    | "--list" :: rest -> list_only := true; parse names rest
    | "--json" :: rest -> Util.json_out := true; parse names rest
    | "--no-share" :: rest -> Util.share := false; parse names rest
    | "--tstore" :: dir :: rest when not (is_flag dir) ->
      Util.tstore := Some dir;
      parse names rest
    | "--inject" :: spec :: rest when not (is_flag spec) ->
      (match Engine.Faults.parse spec with
       | Ok p -> plan := Some p
       | Error e -> usage_error "bad --inject spec: %s" e);
      parse names rest
    | "--trace" :: path :: rest when not (is_flag path) ->
      trace := Some path;
      parse names rest
    | "--metrics" :: path :: rest when not (is_flag path) ->
      metrics := Some path;
      parse names rest
    | "--help" :: _ -> usage (); exit 0
    | a :: _ when is_flag a -> usage_error "unknown option %s; try --help" a
    | n :: rest ->
      if not (List.exists (fun (id, _, _) -> id = n) experiments) then
        usage_error "unknown experiment %S; try --list" n;
      parse (n :: names) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  if !list_only then begin
    list_experiments ~indent:"";
    exit 0
  end;
  (* a plan on the command line replaces one from the environment *)
  (try Engine.Faults.install_from_env ()
   with Invalid_argument e -> usage_error "bad MIRA_FAULTS: %s" e);
  Option.iter Engine.Faults.install !plan;
  Option.iter open_trace !trace;
  Option.iter write_metrics_at_exit !metrics;
  let selected =
    if names = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id names) experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, _, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Fmt.pr "@.[%s done in %.1fs]@." id (Unix.gettimeofday () -. t))
    selected;
  Fmt.pr "@.all selected experiments done in %.1fs (%s scale, %d jobs)@."
    (Unix.gettimeofday () -. t0)
    (match !Util.scale with Util.Fast -> "fast" | Util.Full -> "full")
    !Util.jobs;
  Hashtbl.iter
    (fun arch eng ->
      Fmt.pr "@.[engine %s]@.%a" arch (Engine.pp_stats ~wall:true) eng;
      if not (Engine.healthy eng) then Fmt.pr "%a@." Engine.pp_health eng;
      Engine.Rcache.close (Engine.cache eng))
    Util.engines
